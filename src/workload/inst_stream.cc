#include "workload/inst_stream.hh"

#include <algorithm>
#include <system_error>

namespace soefair
{
namespace workload
{

namespace
{

std::atomic<unsigned> producersAlive{0};

} // namespace

InstStream::InstStream(WorkloadGenerator &g)
    : gen(g), firstSeq(g.generated() + 1), ring(capacity)
{
    static_assert((capacity & (capacity - 1)) == 0,
                  "ring capacity must be a power of two");
    static_assert(batch > 0 && batch <= capacity,
                  "a batch must fit in the ring");
    try {
        producer = std::thread(&InstStream::produce, this);
    } catch (const std::system_error &e) {
        fatal("cannot start the instruction-stream producer thread: ",
              e.what());
    }
    ++producersAlive;
}

InstStream::~InstStream()
{
    releasedWord.store(fetch.released | stopBit, std::memory_order_release);
    releasedWord.notify_one();
    producer.join();
    --producersAlive;
}

unsigned
InstStream::liveProducers()
{
    return producersAlive.load();
}

void
InstStream::produce()
{
    // Locals, not members: nextInto() is out of line, so the compiler
    // would otherwise reload each from *this after every op.
    WorkloadGenerator &g = gen;
    isa::MicroOp *const slots = ring.data();
    const InstSeqNum first = firstSeq;
    std::uint64_t t = 0;
    try {
        for (;;) {
            std::uint64_t rel = releasedWord.load(std::memory_order_acquire);
            while (!(rel & stopBit) && t - rel == capacity) {
                releasedWord.wait(rel, std::memory_order_acquire);
                rel = releasedWord.load(std::memory_order_acquire);
            }
            if (rel & stopBit)
                return;
            const std::uint64_t end =
                std::min<std::uint64_t>(t + batch, rel + capacity);
            for (; t < end; ++t) {
                isa::MicroOp &op = slots[t & (capacity - 1)];
                g.nextInto(op);
                soefair_assert(op.seqNum == first + t,
                               "generator seqNums not contiguous");
            }
            tailWord.store(t, std::memory_order_release);
            tailWord.notify_one();
        }
    } catch (...) {
        // Ops below t are whole; the fetch side rethrows at t.
        error = std::current_exception();
        tailWord.store(t | stopBit, std::memory_order_release);
        tailWord.notify_one();
    }
}

void
InstStream::awaitProduced()
{
    // A producer blocked on a full ring waits for `released`: hand
    // over whatever has retired before waiting on the producer.
    if (fetch.released != fetch.releasedPublished)
        publishReleased();
    soefair_assert(fetch.cursor - fetch.released < capacity, "more than ",
                   capacity, " unretired ops would leave the replay window");
    std::uint64_t t = tailWord.load(std::memory_order_acquire);
    while ((t & ~stopBit) == fetch.cursor) {
        if (t & stopBit)
            std::rethrow_exception(error);
        tailWord.wait(t, std::memory_order_acquire);
        t = tailWord.load(std::memory_order_acquire);
    }
    fetch.tailSeen = t & ~stopBit;
}

void
InstStream::publishReleased()
{
    fetch.releasedPublished = fetch.released;
    releasedWord.store(fetch.released, std::memory_order_release);
    releasedWord.notify_one();
}

void
InstStream::squashAfter(InstSeqNum seq)
{
    if (seq < firstSeq || seq - firstSeq < fetch.released) {
        fetch.cursor = fetch.released;
        return;
    }
    const std::uint64_t pos = seq - firstSeq + 1;
    soefair_assert(pos <= fetch.cursor,
                   "squashAfter(", seq, ") past the fetch cursor");
    fetch.cursor = pos;
}

} // namespace workload
} // namespace soefair
