#include "core/enforcer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/errors.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace core
{

FairnessEnforcer::FairnessEnforcer(double target_fairness,
                                   double miss_lat,
                                   unsigned num_threads)
    : target(target_fairness), missLat(miss_lat)
{
    if (!(target >= 0.0 && target <= 1.0)) {
        raiseError<InputError>("target fairness out of [0,1]: ",
                               target);
    }
    if (!(missLat >= 0.0) || !std::isfinite(missLat))
        raiseError<InputError>("bad miss latency: ", missLat);
    if (num_threads < 1)
        raiseError<InputError>("need at least one thread");
    latest.resize(num_threads);
}

std::vector<double>
FairnessEnforcer::recompute(const std::vector<HwCounters> &window,
                            double measured_miss_lat)
{
    if (window.size() != latest.size()) {
        raiseError<EstimatorError>(
            "counter vector size mismatch: got ", window.size(),
            " samples for ", latest.size(), " threads");
    }
    if (std::isnan(measured_miss_lat) ||
        (measured_miss_lat > 0.0 &&
         !std::isfinite(measured_miss_lat))) {
        raiseError<EstimatorError>("measured miss latency is not "
                                   "finite: ", measured_miss_lat);
    }

    const double lat =
        measured_miss_lat > 0.0 ? measured_miss_lat : missLat;

    // Eqs. 11-13 per thread; a starved window carries the previous
    // estimate forward.
    for (std::size_t j = 0; j < window.size(); ++j) {
        const WindowEstimate e = estimateWindow(window[j], lat);
        // Eqs. 11-13 are ratios of hardware counters: negative or
        // NaN estimates mean a counter ran backwards.
        SOE_AUDIT(e.empty ||
                  (e.ipm >= 0.0 && e.cpm >= 0.0 && e.ipcSt >= 0.0 &&
                   !std::isnan(e.ipcSt)),
                  "window estimate out of range for thread ", j);
        if (!e.empty)
            latest[j] = e;
    }

    std::vector<double> quotas(latest.size(),
                               DeficitCounter::unlimited);
    if (target <= 0.0)
        return quotas; // F = 0: switch on misses only

    // CPM_min over threads with data.
    double cpmMin = std::numeric_limits<double>::infinity();
    bool any = false;
    for (const auto &e : latest) {
        if (!e.empty) {
            cpmMin = std::min(cpmMin, e.cpm);
            any = true;
        }
    }
    if (!any)
        return quotas; // no data yet (first window): no enforcement

    for (std::size_t j = 0; j < latest.size(); ++j) {
        const WindowEstimate &e = latest[j];
        if (e.empty)
            continue; // cannot quota a thread we know nothing about
        // Eq. 9. A zero-cycle window at zero miss latency gives
        // IPC_ST = inf and CPM_min = 0, so `unclamped` is NaN: the
        // comparison then takes the IPM clamp. Floor of one
        // instruction: a quota below 1 would starve the thread.
        const double unclamped = e.ipcSt / target * (cpmMin + lat);
        const double ipsw = unclamped < e.ipm ? unclamped : e.ipm;
        quotas[j] = std::max(1.0, ipsw);
        SOE_AUDIT(quotas[j] >= 1.0 && !std::isnan(quotas[j]),
                  "Eq. 9 quota below the one-instruction floor for "
                  "thread ", j);
    }
    return quotas;
}

const WindowEstimate &
FairnessEnforcer::estimate(unsigned tid) const
{
    soefair_assert(tid < latest.size(), "estimate() bad tid");
    return latest[tid];
}

} // namespace core
} // namespace soefair
