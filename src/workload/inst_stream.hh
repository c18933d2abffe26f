/**
 * @file
 * Replay window between a generator and the core's front end,
 * filled ahead of fetch by a producer thread.
 *
 * An out-of-order core squashes and refetches instructions (branch
 * mispredicts, thread-switch drains). The generator is forward-only,
 * so InstStream keeps every generated-but-unretired micro-op: a
 * squash simply rewinds the read cursor and the same ops are handed
 * out again, guaranteeing that the retired stream is independent of
 * timing.
 *
 * The stream never waits on the pipeline, so it is generated ahead
 * of it. Each InstStream owns one producer thread, the only thread
 * that touches its WorkloadGenerator from construction to
 * destruction. The producer writes ring positions [tail, released +
 * capacity) in batches and publishes `tail`; fetch reads at a cursor
 * and waits only when the cursor reaches `tail`; retirement advances
 * `released`, published once per batch, which frees slots for the
 * producer. The ring is the replay window too: a squash rewinds the
 * cursor no further back than `released`, and every op there is
 * still in its slot. Positions count ops from the stream's first
 * one; position p holds sequence number firstSeq + p.
 *
 * The fetch side (peek, fetchNext, squashAfter, commitUpTo and the
 * queries) belongs to one thread, the simulating one. A reference
 * returned by peek() or fetchNext() stays valid until commitUpTo()
 * retires that op.
 *
 * One writer per cache line: nothing the producer reads per op
 * shares a line with anything fetch writes per op. The fetch side's
 * counters, written on every fetch and retire, fill a 64-byte line
 * of their own (FetchSide); the producer copies what it needs from
 * the line above (the generator, the ring and firstSeq) into locals
 * before its loop. The only lines both threads write are the ring
 * slots and `tailWord`/`releasedWord`, each touched once a batch.
 *
 * Both waits are untimed (std::atomic wait/notify): a producer
 * blocked on a full ring costs no CPU. Anything the generator throws
 * stops the producer; the fetch side rethrows the same exception
 * when its cursor reaches the op that failed, which is where the
 * generator would have thrown had it run inline.
 */

#ifndef SOEFAIR_WORKLOAD_INST_STREAM_HH
#define SOEFAIR_WORKLOAD_INST_STREAM_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "isa/micro_op.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "workload/generator.hh"

namespace soefair
{
namespace workload
{

class InstStream
{
  public:
    /**
     * Ring slots, a power of two. The core holds at most ROB +
     * fetch buffer + 1 unretired ops of a thread (the +1 is the op
     * fetch peeks at), and Core's constructor checks that bound
     * against this; the rest is run-ahead.
     */
    static constexpr std::size_t capacity = 4096;
    /** Ops per publish of `tail` and retired ops per publish of
     *  `released`: each side wakes the other at most once a batch. */
    static constexpr std::size_t batch = 1024;

    /**
     * Start the producer. From here until destruction, only the
     * producer touches `g`; its next op is this stream's first.
     * Raises FatalError if the thread cannot be started.
     */
    explicit InstStream(WorkloadGenerator &g);
    /** Stop and join the producer, also one blocked on a full ring. */
    ~InstStream();

    InstStream(const InstStream &) = delete;
    InstStream &operator=(const InstStream &) = delete;

    /** Next micro-op at the fetch cursor. */
    const isa::MicroOp &
    fetchNext()
    {
        const isa::MicroOp &op = peek();
        ++fetch.cursor;
        return op;
    }

    /** Peek the op that fetchNext() would return, without advancing. */
    const isa::MicroOp &
    peek()
    {
        if (fetch.cursor == fetch.tailSeen)
            awaitProduced();
        return ring[fetch.cursor & (capacity - 1)];
    }

    /**
     * Rewind the fetch cursor so the op *after* seq is fetched next.
     * seq = 0 (invalidSeqNum), or any retired seq, rewinds to the
     * oldest unretired op. seq must not lie past the cursor.
     */
    void squashAfter(InstSeqNum seq);

    /** Retire every op with seqNum <= seq; each must have been fetched. */
    void
    commitUpTo(InstSeqNum seq)
    {
        if (seq < firstSeq || seq - firstSeq < fetch.released)
            return;
        const std::uint64_t end = seq - firstSeq + 1;
        soefair_assert(end <= fetch.cursor,
                       "committing an op that was never fetched");
        fetch.released = end;
        if (fetch.released - fetch.releasedPublished >= batch)
            publishReleased();
    }

    /** Fetched, unretired ops: what a full squash would replay. */
    std::size_t
    buffered() const
    {
        return std::size_t(fetch.cursor - fetch.released);
    }

    /** Sequence number of the oldest unretired op. */
    InstSeqNum oldestSeq() const { return firstSeq + fetch.released; }

    /** Producer threads alive in this process (0 before a fork). */
    static unsigned liveProducers();

  private:
    /**
     * Set in `tailWord` once the producer has stopped on an
     * exception, and in `releasedWord` to ask the producer to stop.
     * Positions never reach it.
     */
    static constexpr std::uint64_t stopBit = std::uint64_t(1) << 63;

    /** The producer thread's body. */
    void produce();
    /** Wait until the op at the cursor is generated (or rethrow). */
    void awaitProduced();
    /** Publish `released` and wake a producer blocked on it. */
    void publishReleased();

    // Set by the constructor, then only read (the slots are on the heap).
    WorkloadGenerator &gen;
    /** Sequence number of position 0. */
    const InstSeqNum firstSeq;
    std::vector<isa::MicroOp> ring;

    /** The simulating thread's own copies, written on every fetch
     *  and retire: a line of their own, so the producer's per-op
     *  loads never meet these stores. */
    struct alignas(64) FetchSide
    {
        std::uint64_t cursor = 0;
        std::uint64_t released = 0;
        std::uint64_t releasedPublished = 0;
        /** Last value of `tailWord` read: ops below it are generated. */
        std::uint64_t tailSeen = 0;
    };
    static_assert(std::is_standard_layout_v<FetchSide> &&
                      alignof(FetchSide) == 64 && sizeof(FetchSide) <= 64,
                  "the fetch side must own exactly one cache line");
    FetchSide fetch;

    /** Written by the producer: generated end (| stopBit on error). */
    alignas(64) std::atomic<std::uint64_t> tailWord{0};
    /** What stopped the producer; read after `tailWord` shows it. */
    std::exception_ptr error;
    /** Written by the fetch side: retired end (| stopBit to stop). */
    alignas(64) std::atomic<std::uint64_t> releasedWord{0};

    /** Runs produce(); started by the constructor, joined by the
     *  destructor. */
    std::thread producer;
};

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_INST_STREAM_HH
