/**
 * @file
 * Constant-latency main memory behind the bus.
 *
 * The paper models memory as a fixed 300-cycle access (75 ns at
 * 4 GHz). Here a read costs one bus transfer plus the fixed array
 * latency; writeback traffic costs a bus transfer only. Every read
 * serviced here is flagged memoryMiss so that upper levels can
 * recognize last-level misses.
 */

#ifndef SOEFAIR_MEM_MEMORY_HH
#define SOEFAIR_MEM_MEMORY_HH

#include "mem/bus.hh"
#include "mem/request.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace mem
{

class Memory : public MemLevel
{
  public:
    Memory(unsigned latency_cycles, Bus &front_bus,
           statistics::Group *stats_parent);

    AccessResult access(const MemReq &req) override;

    unsigned latency() const { return latCycles; }

    statistics::Group statsGroup;
    statistics::Counter reads;
    statistics::Counter writes;

  private:
    unsigned latCycles;
    Bus &bus;
};

} // namespace mem
} // namespace soefair

#endif // SOEFAIR_MEM_MEMORY_HH
