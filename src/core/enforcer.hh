/**
 * @file
 * The fairness enforcement feedback loop (Sections 2.3 and 3).
 *
 * Every delta cycles, the enforcer converts the per-thread hardware
 * counters of the elapsed window into IPM/CPM/IPC_ST estimates
 * (Eqs. 11-13, carrying the previous window's estimate through
 * starved windows) and computes each thread's next switch quota
 * with Eq. 9:
 *
 *   IPSw_j = min(IPM_j, IPC_ST_j / F * (CPM_min + Miss_lat)).
 *
 * F = 0 disables enforcement (quotas unlimited). The quotas feed
 * the per-thread deficit counters in the SOE engine.
 *
 * Guardrails (EstimatorGuard): every window is screened before it
 * is trusted. Denied windows carry the last good estimate forward
 * with an exponentially growing relaxation of the quota (the stale
 * thread drifts toward plain SOE), and after guardMaxBadWindows
 * consecutive bad windows on any thread the whole enforcer degrades
 * to plain SOE until a good window is seen again. Degradations are
 * counted in GuardStats so a run that survived on the fallback
 * cannot masquerade as a clean one.
 */

#ifndef SOEFAIR_CORE_ENFORCER_HH
#define SOEFAIR_CORE_ENFORCER_HH

#include <cstdint>
#include <vector>

#include "core/deficit.hh"
#include "core/estimator.hh"

namespace soefair
{
namespace core
{

/** Counters of the guardrail / graceful-degradation machinery. */
struct GuardStats
{
    std::uint64_t goodWindows = 0;
    std::uint64_t emptyWindows = 0;
    std::uint64_t degenerateWindows = 0;
    std::uint64_t outlierWindows = 0;
    /** Recalculations answered with plain-SOE fallback quotas. */
    std::uint64_t degradedWindows = 0;
    /** Enforced -> degraded transitions. */
    std::uint64_t degradations = 0;
    /** Degraded -> enforced transitions. */
    std::uint64_t recoveries = 0;
};

class FairnessEnforcer
{
  public:
    /**
     * @param target_fairness F in [0, 1]; 0 = no enforcement.
     * @param miss_lat The (predefined) average miss latency used in
     *        Eqs. 9/13; the paper uses 300 cycles.
     * @param num_threads Number of hardware threads.
     *
     * Throws InputError on out-of-range parameters.
     */
    FairnessEnforcer(double target_fairness, double miss_lat,
                     unsigned num_threads);

    /**
     * End-of-window recalculation: consume the window's counters
     * and return the quota (IPSw_j) per thread;
     * DeficitCounter::unlimited means no forced switches for that
     * thread.
     *
     * Throws EstimatorError if the counter vector is malformed or
     * the measured miss latency is not finite.
     *
     * @param measured_miss_lat If positive, use this measured
     *        average event latency in Eqs. 9/13 instead of the
     *        configured constant (Section 6: variable-latency
     *        events should be monitored with hardware counters).
     */
    std::vector<double> recompute(
        const std::vector<HwCounters> &window,
        double measured_miss_lat = -1.0);

    /** Latest estimate per thread (carried through empty windows). */
    const WindowEstimate &estimate(unsigned tid) const;

    /** Per-thread guardrail state (streaks, running statistics). */
    const EstimatorGuard &guard(unsigned tid) const;

    /** True while the enforcer is degraded to plain SOE. */
    bool degraded() const { return isDegraded; }

    const GuardStats &guardStats() const { return gstats; }

    double targetFairness() const { return target; }
    double missLatency() const { return missLat; }
    unsigned numThreads() const { return unsigned(latest.size()); }

  private:
    double target;
    double missLat;
    std::vector<WindowEstimate> latest;
    std::vector<EstimatorGuard> guards;
    GuardStats gstats;
    bool isDegraded = false;
};

} // namespace core
} // namespace soefair

#endif // SOEFAIR_CORE_ENFORCER_HH
