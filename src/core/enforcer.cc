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
    guards.resize(num_threads);
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

    // Screen the window; trusted estimates refresh, denied ones
    // carry the previous estimate forward (guard tracks staleness).
    bool anyBeyondN = false;
    for (std::size_t j = 0; j < window.size(); ++j) {
        ScreenedEstimate s = guards[j].screen(window[j], lat);
        switch (s.verdict) {
          case WindowVerdict::Good:
            ++gstats.goodWindows;
            break;
          case WindowVerdict::Empty:
            ++gstats.emptyWindows;
            break;
          case WindowVerdict::Degenerate:
            ++gstats.degenerateWindows;
            break;
          case WindowVerdict::Outlier:
            ++gstats.outlierWindows;
            break;
        }
        // Eqs. 11-13 are ratios of hardware counters: negative or
        // NaN estimates mean a counter ran backwards.
        SOE_AUDIT(s.estimate.empty ||
                  (s.estimate.ipm >= 0.0 && s.estimate.cpm >= 0.0 &&
                   s.estimate.ipcSt >= 0.0 &&
                   !std::isnan(s.estimate.ipcSt)),
                  "window estimate out of range for thread ", j);
        if (!s.estimate.empty)
            latest[j] = s.estimate;
        if (guards[j].badStreak() >= guardMaxBadWindows)
            anyBeyondN = true;
    }

    std::vector<double> quotas(latest.size(),
                               DeficitCounter::unlimited);

    // Degradation ladder, last rung: too many consecutive bad
    // windows means the estimates cannot be trusted at all — fall
    // back to plain SOE (miss-only switching) until data returns.
    if (anyBeyondN) {
        if (!isDegraded) {
            isDegraded = true;
            ++gstats.degradations;
        }
        ++gstats.degradedWindows;
        return quotas;
    }
    if (isDegraded) {
        isDegraded = false;
        ++gstats.recoveries;
    }

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
        // Eq. 9, scaled by the guard's staleness relaxation: a
        // thread running on carried-forward estimates has its quota
        // widened toward the IPM clamp (plain SOE) every bad window.
        const double unclamped = e.ipcSt * guards[j].relaxation() /
            target * (cpmMin + lat);
        // Floor of one instruction: a quota below 1 would starve
        // the thread outright.
        quotas[j] = std::max(1.0, std::min(e.ipm, unclamped));
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

const EstimatorGuard &
FairnessEnforcer::guard(unsigned tid) const
{
    soefair_assert(tid < guards.size(), "guard() bad tid");
    return guards[tid];
}

} // namespace core
} // namespace soefair
