/**
 * @file
 * Set-associative, write-back, write-allocate cache with MSHRs.
 *
 * Timing-functional: the array stores tags/valid/dirty/LRU stamps
 * only. Misses allocate an MSHR and recursively query the next
 * level; the fill (line installation, victim writeback, MSHR free)
 * is scheduled on the event queue at the returned completion tick,
 * so a line becomes visible to later lookups only once its data
 * would actually have arrived. Requests to a line with an MSHR in
 * flight merge into it and inherit its completion tick — this is
 * what lets clustered (overlapped) L2 misses behave as the paper
 * describes, with only the first one triggering a thread switch.
 */

#ifndef SOEFAIR_MEM_CACHE_HH
#define SOEFAIR_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/request.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

/** Static cache geometry and timing. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned hitLatency = 3;
    unsigned numMshrs = 8;
};

class Cache : public MemLevel
{
  public:
    Cache(const CacheConfig &config, MemLevel &next_level,
          EventQueue &event_queue, statistics::Group *stats_parent);

    AccessResult access(const MemReq &req) override;

    /**
     * Functional warmup touch: performs the lookup/replacement state
     * changes of an access with no timing, no MSHRs and no next-level
     * fetch. @return true if the line was already present.
     */
    bool warmTouch(Addr addr, bool is_write);

    /**
     * True if a fill for this line is pending (tests and the
     * hierarchy's invariant checks use this).
     */
    bool mshrPendingFor(Addr addr) const;

    unsigned mshrsInUse() const;

    const CacheConfig &config() const { return cfg; }

    /** Invariant check: no duplicate tags within any set. */
    void checkInvariants() const;

    // --- statistics ---
    statistics::Group statsGroup;
    statistics::Counter accesses;
    statistics::Counter hits;
    statistics::Counter misses;
    statistics::Counter mshrMerges;
    statistics::Counter mshrFullRetries;
    statistics::Counter writebacks;
    statistics::Counter fills;
    statistics::Counter prefetchFills;
    statistics::Counter prefetchHits;

  private:
    /** Per-way state; the way's tag lives in `tags`. */
    struct Line
    {
        bool dirty = false;
        /** Filled by a prefetch and not yet demanded. */
        bool prefetched = false;
        std::uint64_t lruStamp = 0;
    };

    /** Tag of an invalid way: line addresses have their low bits clear. */
    static constexpr Addr invalidTag = ~Addr(0);

    struct Mshr
    {
        bool valid = false;
        Addr line = 0;
        Tick completion = 0;
        bool memoryMiss = false;
        bool fillDirty = false;
        bool fillPrefetched = false;
    };

    /**
     * Map an address to its set. Every practical geometry has a
     * power-of-two set count, where the modulo (a 64-bit divide on
     * the hottest path in the simulator) reduces to a mask; the
     * divide stays as the fallback for odd configs.
     */
    std::size_t
    setIndex(Addr addr) const
    {
        const Addr line = addr / lineBytes;
        if (setsPow2)
            return std::size_t(line) & setMask;
        return std::size_t(line % numSets);
    }

    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    Mshr *findMshr(Addr line);
    const Mshr *findMshr(Addr line) const;
    Mshr *allocMshr();
    void scheduleFill(Mshr &m);
    void doFill(Addr line, bool dirty,
                bool from_prefetch = false);

    CacheConfig cfg;
    MemLevel &next;
    EventQueue &events;
    sim::AuditRegistration auditReg;

    std::size_t numSets;
    bool setsPow2 = false;
    std::size_t setMask = 0;
    std::vector<Line> lines; // numSets * assoc, set-major
    /**
     * Line address held by each way (invalidTag if none), parallel to
     * `lines`. Kept apart so a lookup scans one dense run of tags
     * rather than whole Line records.
     */
    std::vector<Addr> tags;
    std::vector<Mshr> mshrs;
    std::uint64_t lruCounter = 0;
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_CACHE_HH
