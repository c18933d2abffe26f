/**
 * @file
 * Request/response types shared across the memory hierarchy.
 *
 * The hierarchy is timing-functional: caches track tags, dirty bits
 * and MSHR occupancy (no data), and every access returns the tick at
 * which its data would be available. Backpressure is explicit: an
 * access that cannot be accepted (MSHRs full) returns retry=true and
 * the requester must re-present it on a later cycle, exactly like a
 * blocked cache port.
 */

#ifndef SOEFAIR_MEM_REQUEST_HH
#define SOEFAIR_MEM_REQUEST_HH

#include "sim/types.hh"

namespace soefair
{
namespace mem
{

/** One memory request presented to a level of the hierarchy. */
struct MemReq
{
    Addr addr = 0;
    bool isWrite = false;
    /**
     * Victim eviction traffic. Writebacks never block and never
     * allocate MSHRs: a miss installs the line directly
     * (write-allocate without fetch), a hit just sets dirty.
     */
    bool writeback = false;
    /** Tick at which the request arrives at this level. */
    Tick when = 0;
    ThreadID tid = 0;
    /**
     * Speculative prefetch: fills are tagged so demand hits on
     * prefetched lines can be counted; nothing waits on the result.
     */
    bool prefetch = false;
};

/** Outcome of presenting a MemReq. */
struct AccessResult
{
    /** Data-available tick (writes: accepted/complete tick). */
    Tick completion = 0;
    /** True if this level could not accept the request; retry. */
    bool retry = false;
    /** True if the request hit in this level's array. */
    bool hit = false;
    /**
     * True if the request reached main memory, either by allocating
     * a memory-bound miss or by merging into one already in flight.
     * At the L2 this is the paper's "last-level cache miss".
     */
    bool memoryMiss = false;
    /** True if the request merged into an existing MSHR. */
    bool mergedMshr = false;
};

/** Anything a cache can forward misses to. */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    virtual AccessResult access(const MemReq &req) = 0;
};

/** Cache line size used throughout (bytes). */
constexpr unsigned lineBytes = 64;

inline Addr
lineAddr(Addr a)
{
    return a & ~Addr(lineBytes - 1);
}

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_REQUEST_HH
