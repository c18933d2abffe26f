/**
 * @file
 * Post-retirement store buffer.
 *
 * Retired stores drain to the data cache from here. Matching the
 * paper's machine (Section 4.1), the buffer is NOT flushed on a
 * thread switch: it "keeps dispatching retired stores even after a
 * flush, but will not forward their data if they are not from the
 * same thread" — a load that hits another thread's buffered store
 * blocks until that entry drains.
 */

#ifndef SOEFAIR_CPU_STORE_BUFFER_HH
#define SOEFAIR_CPU_STORE_BUFFER_HH

#include <deque>

#include "mem/hierarchy.hh"
#include "sim/invariant.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace cpu
{

class StoreBuffer
{
  public:
    StoreBuffer(unsigned capacity, mem::Hierarchy &hierarchy,
                statistics::Group *stats_parent);

    bool full() const { return entries.size() >= cap; }
    bool empty() const { return entries.empty(); }
    std::size_t size() const { return entries.size(); }

    /** Accept a retiring store. */
    void push(ThreadID tid, Addr addr, Tick now);

    /**
     * Per-cycle drain: issue at most one store, free completed.
     * @return true if the cycle freed an entry or touched the cache
     *         (an issue attempt counts even when refused: retries
     *         mutate hierarchy statistics); false when the buffer is
     *         provably idle until nextWakeTick().
     */
    bool tick(Tick now);

    /**
     * Earliest tick strictly after `now` at which an idle buffer
     * next frees an entry, or maxTick. After a tick() that returned
     * false every entry is in flight, so the only future action is
     * the in-order completion of the front entry.
     */
    Tick nextWakeTick(Tick now) const;

    /** What an issuing load sees when probing the buffer. */
    enum class Match
    {
        None,
        SameThread,  ///< forwardable
        OtherThread  ///< load must block until the entry drains
    };

    Match probe(Addr addr, ThreadID tid) const;

    /**
     * Structural sweep (registered with the global InvariantAuditor):
     * occupancy within capacity and the issued entries forming a
     * contiguous prefix (stores drain strictly in order).
     */
    void auditStructure() const;

    statistics::Group statsGroup;
    statistics::Counter pushes;
    statistics::Counter drains;
    statistics::Counter retries;

  private:
    struct Entry
    {
        ThreadID tid = 0;
        Addr addr = 0;
        bool issued = false;
        Tick completion = 0;
    };

    unsigned cap;
    mem::Hierarchy &hier;
    std::deque<Entry> entries;
    sim::AuditRegistration auditReg;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_STORE_BUFFER_HH
