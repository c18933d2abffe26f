#include "core/estimator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace soefair
{
namespace core
{

WindowEstimate
estimateWindow(const HwCounters &c, double miss_lat)
{
    soefair_assert(miss_lat >= 0.0, "negative miss latency");

    WindowEstimate e;
    if (c.instrs == 0)
        return e; // starved window: nothing to estimate

    const double misses = double(std::max<std::uint64_t>(c.misses, 1));
    e.ipm = double(c.instrs) / misses;   // Eq. 11
    e.cpm = double(c.cycles) / misses;   // Eq. 12
    e.ipcSt = e.ipm / (e.cpm + miss_lat); // Eq. 13
    e.empty = false;
    return e;
}

} // namespace core
} // namespace soefair
