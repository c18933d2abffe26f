#include "cpu/issue_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

IssueQueue::IssueQueue(unsigned capacity, Rob &reorder_buffer)
    : cap(capacity),
      rob(reorder_buffer),
      words((reorder_buffer.capacity() + 63) / 64),
      readyMask(words, 0),
      wheel(wheelTicks * words, 0)
{
    soefair_assert(cap > 0, "IQ capacity must be positive");
}

void
IssueQueue::promote(Tick now)
{
    if (now <= promotedTo)
        return;
    // Buckets of ticks promotedTo+1 .. now, as a mask rotated to the
    // first one's index; after a jump of a whole wheel turn or more,
    // every bucket is due.
    const Tick span = now - promotedTo;
    std::uint64_t due = span >= wheelTicks
        ? ~std::uint64_t(0)
        : std::rotl((std::uint64_t(1) << span) - 1,
                    int((promotedTo + 1) % wheelTicks));
    due &= busyBuckets;
    busyBuckets &= ~due;
    while (due) {
        const unsigned b = unsigned(std::countr_zero(due));
        due &= due - 1;
        std::uint64_t *bucket = &wheel[b * words];
        for (std::size_t w = 0; w < words; ++w) {
            readyMask[w] |= bucket[w];
            bucket[w] = 0;
        }
    }
    promotedTo = now;
    if (distantMin <= now + wheelTicks - 1)
        promoteDistant(now);
}

void
IssueQueue::promoteDistant(Tick now)
{
    // Re-file the entries that are due or now within the wheel's
    // reach (schedule() never sends those back here). The list is
    // short: consumers of long-latency misses.
    distantMin = maxTick;
    std::size_t kept = 0;
    for (DynInst *e : distant) {
        if (e->readyTick <= now || e->readyTick - now < wheelTicks) {
            schedule(e, now);
        } else {
            distant[kept++] = e;
            distantMin = std::min(distantMin, e->readyTick);
        }
    }
    distant.resize(kept);
}

void
IssueQueue::squashAll()
{
    // The entries themselves, links included, go with the ROB.
    for (DynInst &e : rob)
        e.inIq = false;
    std::fill(readyMask.begin(), readyMask.end(), 0);
    std::fill(wheel.begin(), wheel.end(), 0);
    busyBuckets = 0;
    distant.clear();
    distantMin = maxTick;
    count = 0;
}

} // namespace cpu
} // namespace soefair
