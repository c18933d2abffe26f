/**
 * @file
 * Thread-scheduling policies for the SOE engine.
 *
 * A policy decides (a) whether last-level misses switch threads and
 * (b) the per-thread instruction quotas recomputed every delta
 * cycles. Policies implemented:
 *
 *  - MissOnlyPolicy: the paper's F = 0 baseline (plain SOE).
 *  - FairnessPolicy: the paper's mechanism, wrapping
 *    core::FairnessEnforcer (Eq. 9 quotas from runtime estimates).
 *  - TimeSharePolicy: Section 6's strawman — a fixed cycle quota
 *    with no miss switching (pure time slicing).
 *  - FixedQuotaPolicy: a fixed instruction quota for every thread
 *    on top of miss switching (ablation).
 */

#ifndef SOEFAIR_SOE_POLICIES_HH
#define SOEFAIR_SOE_POLICIES_HH

#include <memory>
#include <string>
#include <vector>

#include "core/deficit.hh"
#include "core/enforcer.hh"
#include "core/estimator.hh"
#include "sim/types.hh"

namespace soefair
{
namespace soe
{

class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    virtual std::string name() const = 0;

    /** Do last-level misses at the ROB head switch threads? */
    virtual bool switchOnMiss() const { return true; }

    /**
     * Fixed per-residency cycle quota (0 = none). Used by the
     * time-sharing strawman; distinct from the engine's max-cycles
     * safety quota.
     */
    virtual Tick cycleQuota() const { return 0; }

    /**
     * End-of-window quota recalculation from the window's hardware
     * counters. Returns IPSw_j per thread;
     * core::DeficitCounter::unlimited disables forced switches.
     *
     * @param measured_miss_lat Average switch-event latency measured
     *        by the engine over the window (<= 0 when unavailable);
     *        policies may use it instead of a fixed constant
     *        (Section 6's variable-latency events).
     */
    virtual std::vector<double> recompute(
        const std::vector<core::HwCounters> &window,
        double measured_miss_lat) = 0;

    /**
     * Always false: no policy has a degraded fallback. Kept because
     * perfbench's tracing policy wrapper overrides it.
     */
    virtual bool degraded() const { return false; }
};

/** Plain SOE: switch on misses only (the paper's F = 0). */
class MissOnlyPolicy : public SchedulingPolicy
{
  public:
    std::string name() const override { return "miss-only"; }

    std::vector<double>
    recompute(const std::vector<core::HwCounters> &window,
              double) override
    {
        return std::vector<double>(window.size(),
                                   core::DeficitCounter::unlimited);
    }
};

/** The paper's fairness enforcement mechanism. */
class FairnessPolicy : public SchedulingPolicy
{
  public:
    /**
     * @param use_measured_miss_lat Use the engine's measured
     *        average event latency instead of the fixed miss_lat
     *        (Section 6's extension for variable-latency events).
     */
    FairnessPolicy(double target_fairness, double miss_lat,
                   unsigned num_threads,
                   bool use_measured_miss_lat = false)
        : enforcer(target_fairness, miss_lat, num_threads),
          useMeasured(use_measured_miss_lat)
    {}

    std::string name() const override;

    std::vector<double>
    recompute(const std::vector<core::HwCounters> &window,
              double measured_miss_lat) override
    {
        return enforcer.recompute(
            window, useMeasured ? measured_miss_lat : -1.0);
    }

    bool usesMeasuredMissLat() const { return useMeasured; }

    const core::FairnessEnforcer &getEnforcer() const
    {
        return enforcer;
    }

  private:
    core::FairnessEnforcer enforcer;
    bool useMeasured;
};

/** Section 6 strawman: pure time sharing, no miss switching. */
class TimeSharePolicy : public SchedulingPolicy
{
  public:
    explicit TimeSharePolicy(Tick cycle_quota) : quota(cycle_quota) {}

    std::string name() const override;
    bool switchOnMiss() const override { return false; }
    Tick cycleQuota() const override { return quota; }

    std::vector<double>
    recompute(const std::vector<core::HwCounters> &window,
              double) override
    {
        return std::vector<double>(window.size(),
                                   core::DeficitCounter::unlimited);
    }

  private:
    Tick quota;
};

/** Fixed instruction quota on top of miss switching (ablation). */
class FixedQuotaPolicy : public SchedulingPolicy
{
  public:
    explicit FixedQuotaPolicy(double ipsw) : ipswQuota(ipsw) {}

    std::string name() const override;

    std::vector<double>
    recompute(const std::vector<core::HwCounters> &window,
              double) override
    {
        return std::vector<double>(window.size(), ipswQuota);
    }

  private:
    double ipswQuota;
};

} // namespace soe
} // namespace soefair

#endif // SOEFAIR_SOE_POLICIES_HH
