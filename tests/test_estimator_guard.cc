/**
 * @file
 * Unit tests for the estimator guardrails (EstimatorGuard window
 * screening, decay carry-forward) and the fairness enforcer's
 * graceful degradation to plain SOE (see docs/robustness.md).
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/deficit.hh"
#include "core/enforcer.hh"
#include "core/estimator.hh"
#include "sim/errors.hh"

using namespace soefair;
using namespace soefair::core;

namespace
{

HwCounters
hw(std::uint64_t instrs, std::uint64_t cycles, std::uint64_t misses)
{
    HwCounters c;
    c.instrs = instrs;
    c.cycles = cycles;
    c.misses = misses;
    return c;
}

} // namespace

TEST(EstimatorGuard, GoodWindowIsTrusted)
{
    EstimatorGuard g;
    auto s = g.screen(hw(5000, 2000, 10), 300.0);
    EXPECT_EQ(s.verdict, WindowVerdict::Good);
    EXPECT_FALSE(s.estimate.empty);
    EXPECT_EQ(g.badStreak(), 0u);
    EXPECT_DOUBLE_EQ(g.relaxation(), 1.0);
}

TEST(EstimatorGuard, EmptyWindowCarriesLastGoodForward)
{
    EstimatorGuard g;
    auto good = g.screen(hw(5000, 2000, 10), 300.0);
    auto s = g.screen(hw(0, 0, 0), 300.0);
    EXPECT_EQ(s.verdict, WindowVerdict::Empty);
    EXPECT_EQ(g.badStreak(), 1u);
    // The carried estimate is the previous good one.
    EXPECT_DOUBLE_EQ(s.estimate.ipm, good.estimate.ipm);
    EXPECT_DOUBLE_EQ(s.estimate.cpm, good.estimate.cpm);
}

TEST(EstimatorGuard, DegenerateWindowIsDenied)
{
    EstimatorGuard g;
    g.screen(hw(5000, 2000, 10), 300.0);
    // Retired instructions with zero run cycles is impossible.
    auto s = g.screen(hw(5000, 0, 10), 300.0);
    EXPECT_EQ(s.verdict, WindowVerdict::Degenerate);
    EXPECT_EQ(g.badStreak(), 1u);
}

TEST(EstimatorGuard, OutlierBeyondZBandIsDenied)
{
    EstimatorGuard g;
    for (unsigned i = 0; i < guardMinWindowsForZ; ++i) {
        auto s = g.screen(hw(5000 + 10 * i, 2000, 10), 300.0);
        ASSERT_EQ(s.verdict, WindowVerdict::Good) << "window " << i;
    }
    // A bit-flipped instruction counter: IPM explodes.
    auto s = g.screen(hw(5'000'000'000ull, 2000, 10), 300.0);
    EXPECT_EQ(s.verdict, WindowVerdict::Outlier);
    EXPECT_EQ(g.badStreak(), 1u);
    // The carried-forward estimate stays in the healthy range.
    EXPECT_LT(s.estimate.ipm, 10000.0);
}

TEST(EstimatorGuard, ZScreenNotArmedBeforeMinWindows)
{
    EstimatorGuard g;
    for (unsigned i = 0; i + 1 < guardMinWindowsForZ; ++i)
        g.screen(hw(5000, 2000, 10), 300.0);
    // Wild jump, but the screen has not armed yet: trusted.
    auto s = g.screen(hw(5'000'000'000ull, 2000, 10), 300.0);
    EXPECT_EQ(s.verdict, WindowVerdict::Good);
}

TEST(EstimatorGuard, RelaxationGrowsWithStreakAndResets)
{
    // Relaxation grows by 1/decay per bad window.
    EstimatorGuard g;
    g.screen(hw(5000, 2000, 10), 300.0);
    g.screen(hw(0, 0, 0), 300.0);
    EXPECT_DOUBLE_EQ(g.relaxation(), 1.0 / guardDecay);
    g.screen(hw(0, 0, 0), 300.0);
    EXPECT_DOUBLE_EQ(g.relaxation(), 1.0 / (guardDecay * guardDecay));
    // A good window resets the staleness entirely.
    g.screen(hw(5000, 2000, 10), 300.0);
    EXPECT_DOUBLE_EQ(g.relaxation(), 1.0);
}

TEST(EstimatorGuard, RelaxationIsCappedAndFinite)
{
    EstimatorGuard g;
    g.screen(hw(5000, 2000, 10), 300.0);
    for (int i = 0; i < 2000; ++i)
        g.screen(hw(0, 0, 0), 300.0);
    EXPECT_TRUE(std::isfinite(g.relaxation()));
    EXPECT_LE(g.relaxation(), 1e9 + 1.0);
}

TEST(EnforcerGuard, DegradesToPlainSoeAfterNBadWindows)
{
    FairnessEnforcer e(0.5, 300.0, 2);
    for (int i = 0; i < 5; ++i)
        e.recompute({hw(5000, 2000, 10), hw(900, 1800, 30)}, -1.0);
    EXPECT_FALSE(e.degraded());

    // Thread 1's counters go degenerate for N consecutive windows.
    std::vector<double> q;
    for (unsigned i = 0; i < guardMaxBadWindows; ++i) {
        EXPECT_FALSE(e.degraded()) << "window " << i;
        q = e.recompute({hw(5000, 2000, 10), hw(900, 0, 30)}, -1.0);
    }
    EXPECT_TRUE(e.degraded());
    // Degraded = plain SOE: every quota unlimited.
    for (double v : q)
        EXPECT_EQ(v, DeficitCounter::unlimited);
    EXPECT_EQ(e.guardStats().degradations, 1u);
    EXPECT_GE(e.guardStats().degradedWindows, 1u);
}

TEST(EnforcerGuard, RecoversWhenGoodWindowsReturn)
{
    FairnessEnforcer e(0.5, 300.0, 2);
    e.recompute({hw(5000, 2000, 10), hw(900, 1800, 30)}, -1.0);
    for (unsigned i = 0; i < guardMaxBadWindows; ++i)
        e.recompute({hw(5000, 2000, 10), hw(900, 0, 30)}, -1.0);
    ASSERT_TRUE(e.degraded());

    auto q = e.recompute({hw(5000, 2000, 10), hw(900, 1800, 30)},
                         -1.0);
    EXPECT_FALSE(e.degraded());
    EXPECT_EQ(e.guardStats().recoveries, 1u);
    // Enforcement is back: the fast thread is quota-limited again.
    EXPECT_NE(q[0], DeficitCounter::unlimited);
}

TEST(EnforcerGuard, StaleEstimatesRelaxQuotaTowardIpm)
{
    FairnessEnforcer e(0.5, 300.0, 2);
    auto fresh = e.recompute({hw(5000, 2000, 10), hw(900, 1800, 30)},
                             -1.0);
    // Thread 0 starves (empty windows): until the enforcer degrades,
    // its quota must widen monotonically toward its IPM clamp, never
    // shrink on staleness.
    auto prev = fresh;
    for (unsigned i = 0; i + 1 < guardMaxBadWindows; ++i) {
        auto q = e.recompute({hw(0, 0, 0), hw(900, 1800, 30)}, -1.0);
        EXPECT_GE(q[0] + 1e-9, prev[0]) << "window " << i;
        EXPECT_LE(q[0], 500.0 + 1e-9); // IPM clamp (5000/10 misses)
        prev = q;
    }
}

TEST(EnforcerGuard, GuardStatsTallyVerdicts)
{
    FairnessEnforcer e(0.5, 300.0, 1);
    e.recompute({hw(5000, 2000, 10)}, -1.0); // good
    e.recompute({hw(0, 0, 0)}, -1.0);        // empty
    e.recompute({hw(5000, 0, 10)}, -1.0);    // degenerate
    const auto &s = e.guardStats();
    EXPECT_EQ(s.goodWindows, 1u);
    EXPECT_EQ(s.emptyWindows, 1u);
    EXPECT_EQ(s.degenerateWindows, 1u);
    EXPECT_EQ(s.degradations, 0u);
}

TEST(EnforcerGuard, NonFiniteMeasuredLatencyIsEstimatorError)
{
    FairnessEnforcer e(0.5, 300.0, 1);
    EXPECT_THROW(
        e.recompute({hw(5000, 2000, 10)},
                    std::numeric_limits<double>::quiet_NaN()),
        EstimatorError);
    EXPECT_THROW(
        e.recompute({hw(5000, 2000, 10)},
                    std::numeric_limits<double>::infinity()),
        EstimatorError);
}
