#include "core/estimator.hh"

#include <algorithm>
#include <cmath>
#include <limits>

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

ScreenedEstimate
EstimatorGuard::deny(WindowVerdict verdict)
{
    if (streak < std::numeric_limits<unsigned>::max())
        ++streak;
    return {good, verdict};
}

bool
EstimatorGuard::isOutlier(const WindowEstimate &e) const
{
    if (learned < guardMinWindowsForZ)
        return false; // z-screen not armed yet
    const auto outside = [](double x, double mean, double var) {
        const double floor = guardRelStdFloor * mean + 1.0;
        const double sd = std::max(std::sqrt(std::max(var, 0.0)),
                                   floor);
        return std::abs(x - mean) > guardZBand * sd;
    };
    return outside(e.ipm, ipmMean, ipmVar) ||
           outside(e.cpm, cpmMean, cpmVar);
}

void
EstimatorGuard::learn(const WindowEstimate &e)
{
    // EWMA mean/variance (West's incremental form, alpha fixed):
    // cheap, O(1) state, and forgets ancient phases so the band
    // tracks workload phase changes instead of pinning to history.
    constexpr double alpha = 0.2;
    const auto fold = [](double x, double &mean, double &var) {
        const double diff = x - mean;
        const double incr = alpha * diff;
        mean += incr;
        var = (1.0 - alpha) * (var + diff * incr);
    };
    fold(e.ipm, ipmMean, ipmVar);
    fold(e.cpm, cpmMean, cpmVar);
    ++learned;
}

ScreenedEstimate
EstimatorGuard::screen(const HwCounters &c, double miss_lat)
{
    if (c.instrs == 0)
        return deny(WindowVerdict::Empty);
    if (c.cycles == 0) // instructions retired in zero cycles
        return deny(WindowVerdict::Degenerate);

    WindowEstimate e = estimateWindow(c, miss_lat);
    if (!std::isfinite(e.ipm) || !std::isfinite(e.cpm) ||
        !std::isfinite(e.ipcSt)) {
        return deny(WindowVerdict::Degenerate);
    }
    if (isOutlier(e))
        return deny(WindowVerdict::Outlier);

    learn(e);
    good = e;
    streak = 0;
    return {e, WindowVerdict::Good};
}

double
EstimatorGuard::relaxation() const
{
    if (streak == 0)
        return 1.0;
    // (1/decay)^streak, capped: past ~1e9 the Eq. 9 IPM clamp has
    // long since taken over and bigger values only risk overflow.
    constexpr double cap = 1e9;
    const double relax =
        std::pow(1.0 / guardDecay, double(std::min(streak, 128u)));
    return std::min(relax, cap);
}

} // namespace core
} // namespace soefair
