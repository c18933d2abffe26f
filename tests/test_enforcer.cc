/** @file Unit tests for the fairness-enforcement feedback loop. */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/analytic.hh"
#include "core/deficit.hh"
#include "core/enforcer.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"

using namespace soefair;
using namespace soefair::core;

namespace
{

/** Ideal counters for a thread with the given IPM/CPM over a
 *  window that saw `misses` misses. */
HwCounters
counters(double ipm, double cpm, std::uint64_t misses)
{
    return {std::uint64_t(ipm * double(misses)),
            std::uint64_t(cpm * double(misses)), misses};
}

} // namespace

TEST(Enforcer, FZeroLeavesQuotasUnlimited)
{
    FairnessEnforcer e(0.0, 300.0, 2);
    auto q = e.recompute({counters(1000, 400, 20),
                          counters(15000, 6000, 3)});
    EXPECT_EQ(q[0], DeficitCounter::unlimited);
    EXPECT_EQ(q[1], DeficitCounter::unlimited);
}

TEST(Enforcer, MatchesAnalyticQuotaOnIdealCounters)
{
    // With perfect counters the runtime quota must equal Eq. 9's
    // analytic value.
    const double f = 0.5;
    FairnessEnforcer e(f, 300.0, 2);
    auto q = e.recompute({counters(1000, 400, 20),
                          counters(15000, 6000, 3)});

    AnalyticSoe model({ThreadModel{1000, 400},
                       ThreadModel{15000, 6000}},
                      MachineModel{300.0, 25.0});
    auto expect = model.quotasForFairness(f);
    EXPECT_NEAR(q[0], expect[0], 1e-6);
    EXPECT_NEAR(q[1], expect[1], 1e-6);
}

TEST(Enforcer, StarvedThreadKeepsPreviousEstimate)
{
    FairnessEnforcer e(1.0, 300.0, 2);
    const auto fresh =
        e.recompute({counters(15000, 6000, 3), counters(1000, 400, 20)});
    const WindowEstimate est0 = e.estimate(0);
    // Thread 0 is the fast thread: Eq. 9 holds it below its IPM
    // clamp, so a widened quota would show.
    ASSERT_LT(fresh[0], est0.ipm);

    // Thread 0 then never runs for several windows. Its estimate
    // persists, and its quota stays exactly Eq. 9 on that estimate.
    for (int w = 0; w < 5; ++w) {
        auto q = e.recompute({HwCounters{}, counters(1000, 400, 20)});
        EXPECT_EQ(e.estimate(0).ipm, est0.ipm) << "window " << w;
        EXPECT_EQ(e.estimate(0).cpm, est0.cpm) << "window " << w;
        EXPECT_EQ(e.estimate(0).ipcSt, est0.ipcSt) << "window " << w;
        EXPECT_EQ(q[0], fresh[0]) << "window " << w;
        EXPECT_EQ(q[1], fresh[1]) << "window " << w;
    }
}

TEST(Enforcer, EmptyWindowCarriesLastEstimateForward)
{
    FairnessEnforcer e(0.5, 300.0, 1);
    e.recompute({HwCounters{5000, 2000, 10}});
    const WindowEstimate good = e.estimate(0);
    ASSERT_FALSE(good.empty);

    // An empty window is no evidence: the estimate stays the last
    // non-empty one.
    e.recompute({HwCounters{}});
    EXPECT_FALSE(e.estimate(0).empty);
    EXPECT_DOUBLE_EQ(e.estimate(0).ipm, good.ipm);
    EXPECT_DOUBLE_EQ(e.estimate(0).cpm, good.cpm);
    EXPECT_DOUBLE_EQ(e.estimate(0).ipcSt, good.ipcSt);
}

TEST(Enforcer, StaleEstimateKeepsQuotaWithinIpm)
{
    FairnessEnforcer e(0.5, 300.0, 2);
    const auto fresh = e.recompute(
        {HwCounters{5000, 2000, 10}, HwCounters{900, 1800, 30}});
    // Thread 0 starves: its quota is neither widened nor shrunk on
    // staleness, and stays within its IPM clamp (5000 / 10 misses).
    for (int w = 0; w < 8; ++w) {
        auto q = e.recompute({HwCounters{}, HwCounters{900, 1800, 30}});
        EXPECT_EQ(q[0], fresh[0]) << "window " << w;
        EXPECT_LE(q[0], 500.0 + 1e-9) << "window " << w;
        EXPECT_EQ(q[1], fresh[1]) << "window " << w;
    }
}

TEST(Enforcer, ZeroCycleWindowGivesFiniteQuota)
{
    // Instructions retired in zero run cycles: IPM = 500, CPM = 0.
    // At zero miss latency IPC_ST is infinite and CPM_min is 0, so
    // Eq. 9's unclamped term is inf * 0; the quota must still be a
    // finite number between the unit floor and the IPM clamp.
    for (double missLat : {300.0, 0.0}) {
        for (double f : {0.5, 1.0}) {
            FairnessEnforcer e(f, missLat, 1);
            auto q = e.recompute({HwCounters{5000, 0, 10}});
            ASSERT_EQ(q.size(), 1u);
            EXPECT_TRUE(std::isfinite(q[0]))
                << "miss latency " << missLat << ", F " << f;
            EXPECT_GE(q[0], 1.0) << "miss latency " << missLat;
            EXPECT_LE(q[0], 500.0) << "miss latency " << missLat;
        }
    }
}

TEST(Enforcer, NoDataMeansNoEnforcement)
{
    FairnessEnforcer e(1.0, 300.0, 2);
    auto q = e.recompute({HwCounters{}, HwCounters{}});
    EXPECT_EQ(q[0], DeficitCounter::unlimited);
    EXPECT_EQ(q[1], DeficitCounter::unlimited);
}

TEST(Enforcer, QuotaHasUnitFloor)
{
    // A hopeless imbalance must not produce quotas below one
    // instruction (which would deadlock the thread).
    FairnessEnforcer e(1.0, 300.0, 2);
    auto q = e.recompute({counters(2.0, 1000000.0, 5),
                          counters(50000, 20000, 2)});
    EXPECT_GE(q[0], 1.0);
    EXPECT_GE(q[1], 1.0);
}

TEST(Enforcer, StricterFairnessMeansSmallerQuota)
{
    auto quotaAt = [](double f) {
        FairnessEnforcer e(f, 300.0, 2);
        auto q = e.recompute({counters(1000, 400, 20),
                              counters(15000, 6000, 3)});
        return q[1]; // the fast thread's quota
    };
    EXPECT_GT(quotaAt(0.25), quotaAt(0.5));
    EXPECT_GT(quotaAt(0.5), quotaAt(1.0));
}

TEST(Enforcer, QuotasClampToIpm)
{
    FairnessEnforcer e(0.1, 300.0, 2);
    auto q = e.recompute({counters(1000, 400, 20),
                          counters(15000, 6000, 3)});
    EXPECT_LE(q[0], 1000.0 + 1e-9);
    EXPECT_LE(q[1], 15000.0 + 1e-9);
}

TEST(Enforcer, RejectsBadConstruction)
{
    EXPECT_THROW(FairnessEnforcer(1.5, 300.0, 2), InputError);
    EXPECT_THROW(FairnessEnforcer(0.5, -1.0, 2), InputError);
    EXPECT_THROW(FairnessEnforcer(0.5, 300.0, 0), InputError);
}

TEST(Enforcer, RejectsWrongCounterCount)
{
    FairnessEnforcer e(0.5, 300.0, 2);
    EXPECT_THROW(e.recompute({HwCounters{}}), EstimatorError);
}

TEST(Enforcer, NonFiniteMeasuredLatencyIsEstimatorError)
{
    FairnessEnforcer e(0.5, 300.0, 1);
    EXPECT_THROW(
        e.recompute({HwCounters{5000, 2000, 10}},
                    std::numeric_limits<double>::quiet_NaN()),
        EstimatorError);
    EXPECT_THROW(
        e.recompute({HwCounters{5000, 2000, 10}},
                    std::numeric_limits<double>::infinity()),
        EstimatorError);
}
