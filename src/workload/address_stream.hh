/**
 * @file
 * Data-address generation for synthetic workloads.
 *
 * Each thread owns one AddressStream. It maintains per-region state
 * (stream cursor, strided cursor, chase cursor) and draws addresses
 * according to the active Phase's region weights. Addresses are
 * offset into a thread-private slice of the physical address space
 * so that co-running threads never alias each other's data (they are
 * independent processes in the paper); they still contend for the
 * physically shared caches.
 */

#ifndef SOEFAIR_WORKLOAD_ADDRESS_STREAM_HH
#define SOEFAIR_WORKLOAD_ADDRESS_STREAM_HH

#include <cstdint>

#include "sim/random.hh"
#include "sim/types.hh"
#include "workload/profile.hh"

namespace soefair
{
namespace workload
{

class AddressStream
{
  public:
    /**
     * @param thread_id Thread whose address-space slice to use.
     * @param seed Seed for the address RNG (independent of the
     *             control-flow RNG so code and data streams do not
     *             correlate).
     */
    AddressStream(ThreadID thread_id, std::uint64_t seed);

    /** Install the active phase (region weights, footprints). */
    void setPhase(const Phase &phase);

    /** Result of drawing one data address. */
    struct Access
    {
        Addr addr = 0;
        RegionKind kind = RegionKind::Hot;
    };

    /** Draw the next load address. */
    Access nextLoad();

    /**
     * Draw the next store address. Stores use the same region
     * sampler but never chase (a dependent-store chain has no
     * timing-relevant analogue here); chase draws fall back to Hot.
     */
    Access nextStore();

    /** Base of this thread's data slice (tests use this). */
    Addr dataBase() const { return base; }

  private:
    Access draw(bool isLoad);
    Addr hotAddr();
    Addr streamAddr();
    Addr stridedAddr();
    Addr chaseAddr();

    /** Per-thread address-space slice: 1 TiB apart. */
    static constexpr unsigned threadShift = 40;

    Addr base;
    Rng rng;
    DiscreteSampler regionSampler;
    Phase active;

    std::uint64_t streamCursor = 0;
    std::uint64_t stridedCursor = 0;
    std::uint64_t chaseCursor = 0;
};

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_ADDRESS_STREAM_HH
