/**
 * @file
 * The complete memory hierarchy of the simulated machine (paper
 * Figure 4): split L1 I/D caches, a unified L2, a pipelined bus and
 * constant-latency memory, plus i/d TLBs whose walks go through the
 * L2. All structures are physically shared between threads and are
 * never flushed on a thread switch (Section 4.1).
 */

#ifndef SOEFAIR_MEM_HIERARCHY_HH
#define SOEFAIR_MEM_HIERARCHY_HH

#include <memory>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "mem/prefetcher.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 32 * 1024, 8, 3, 4};
    CacheConfig l1d{"l1d", 32 * 1024, 8, 3, 8};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 16, 12, 16};
    TlbConfig itlb{"itlb", 64, 10};
    TlbConfig dtlb{"dtlb", 64, 10};
    /** Hardware prefetcher into the L2 (paper machine: disabled). */
    PrefetcherConfig prefetch{};
    unsigned busOccupancy = 4;
    /** Array latency; total L2-miss cost ~= bus + this (+L1+L2). */
    unsigned memLatency = 281;
};

/** Combined outcome of a data or fetch access (TLB + caches). */
struct HierAccessResult
{
    Tick completion = 0;
    bool retry = false;
    /**
     * The access (or its TLB walk) reached main memory: the paper's
     * last-level cache miss, i.e. the SOE switch event.
     */
    bool l2Miss = false;
    /**
     * The access missed the first-level cache (it may still have
     * hit the L2). Used by the extended switch-on-L1-miss mode the
     * paper sketches in Section 6.
     */
    bool l1Miss = false;
    bool tlbWalked = false;
};

class Hierarchy
{
  public:
    Hierarchy(const HierarchyConfig &config, EventQueue &event_queue,
              statistics::Group *stats_parent);

    HierAccessResult load(ThreadID tid, Addr addr, Tick when);
    HierAccessResult store(ThreadID tid, Addr addr, Tick when);
    HierAccessResult fetch(ThreadID tid, Addr addr, Tick when);

    /**
     * Touch a data address functionally (fast cache warmup: tags
     * move, no timing, no MSHRs).
     */
    void warmData(ThreadID tid, Addr addr, bool is_write);
    /** Touch a fetch address functionally. */
    void warmFetch(ThreadID tid, Addr addr);

    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }
    Tlb &itlb() { return *iTlb; }
    Tlb &dtlb() { return *dTlb; }
    StridePrefetcher &prefetcher() { return *pf; }
    Bus &bus() { return *frontBus; }
    Memory &memory() { return *mainMem; }

    void checkInvariants() const;

    const HierarchyConfig &config() const { return cfg; }

  private:
    HierAccessResult dataAccess(ThreadID tid, Addr addr, Tick when,
                                bool is_write);

    HierarchyConfig cfg;
    statistics::Group statsGroup;
    std::unique_ptr<Bus> frontBus;
    std::unique_ptr<Memory> mainMem;
    std::unique_ptr<Cache> l2Cache;
    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Tlb> iTlb;
    std::unique_ptr<Tlb> dTlb;
    std::unique_ptr<StridePrefetcher> pf;
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_HIERARCHY_HH
