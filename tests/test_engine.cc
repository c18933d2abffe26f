/**
 * @file
 * Unit tests for the SOE engine. They call its hooks directly, with
 * no core, so rotation, counting, deficit and sampling behaviour can
 * be checked in isolation.
 */

#include <gtest/gtest.h>

#include "sim/errors.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "stats/stats.hh"

using namespace soefair;
using namespace soefair::soe;

namespace
{

SoeConfig
smallCfg()
{
    SoeConfig c;
    c.delta = 10000;
    c.maxCyclesQuota = 5000;
    c.missLatency = 300.0;
    return c;
}

} // namespace

TEST(Engine, MissSwitchRotatesRoundRobin)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeConfig cfg = smallCfg();
    cfg.maxCyclesQuota = 3000; // <= delta / numThreads
    SoeEngine eng(cfg, pol, 3, &root);
    eng.onSwitchIn(0, 0);
    // Thread 0 blocks on a miss resolving at 400: switch to 1.
    EXPECT_EQ(eng.onHeadStall(0, 10, 100, 400, true), 1);
    eng.onSwitchOut(0, 100);
    eng.onSwitchIn(1, 106);
    // Thread 1 blocks at 200; thread 2 is ready; 0 still blocked.
    EXPECT_EQ(eng.onHeadStall(1, 10, 200, 500, true), 2);
}

TEST(Engine, BlockedThreadIsSkipped)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 2, &root);
    eng.onSwitchIn(0, 0);
    EXPECT_EQ(eng.onHeadStall(0, 10, 100, 400, true), 1);
    eng.onSwitchOut(0, 100);
    eng.onSwitchIn(1, 106);
    // Thread 1 blocks at 150, but thread 0's miss resolves at 400:
    // nobody is ready -> no switch.
    EXPECT_EQ(eng.onHeadStall(1, 20, 150, 600, true), invalidThreadId);
    // Once 0's miss resolved, the same block can switch.
    EXPECT_EQ(eng.onHeadStall(1, 20, 450, 600, true), 0);
}

TEST(Engine, MissCountingDeduplicatesBySeq)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 2, &root);
    eng.onSwitchIn(0, 0);
    for (int i = 0; i < 10; ++i)
        eng.onHeadStall(0, 42, Tick(100 + i), 400, true);
    EXPECT_EQ(eng.context(0).window.misses, 1u);
    eng.onHeadStall(0, 43, 200, 500, true);
    EXPECT_EQ(eng.context(0).window.misses, 2u);
    EXPECT_EQ(eng.missEvents.value(), 2u);
}

TEST(Engine, CyclesCountFromFirstRetire)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 2, &root);
    eng.onSwitchIn(0, 100);
    // No retire yet: switch-out at 150 accrues nothing.
    eng.onSwitchOut(0, 150);
    EXPECT_EQ(eng.context(0).window.cycles, 0u);

    eng.onSwitchIn(0, 200);
    eng.onRetire(0, 220); // first retirement at 220
    eng.onRetire(0, 221);
    eng.onSwitchOut(0, 300);
    EXPECT_EQ(eng.context(0).window.cycles, 80u);
    EXPECT_EQ(eng.context(0).window.instrs, 2u);
}

TEST(Engine, MaxCyclesQuotaFires)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 2, &root);
    eng.onSwitchIn(0, 0);
    EXPECT_FALSE(eng.onCycle(0, 4999));
    EXPECT_TRUE(eng.onCycle(0, 5000));
    EXPECT_EQ(eng.nextReady(0, 5000), 1);
}

TEST(Engine, QuotaGuardsAgainstFutureSwitchIn)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 2, &root);
    // Switch-in stamped at the end of a drain, in the future.
    eng.onSwitchIn(0, 100);
    EXPECT_FALSE(eng.onCycle(0, 95));
}

TEST(Engine, SamplingInstallsQuotas)
{
    statistics::Group root("t");
    FairnessPolicy pol(1.0, 300.0, 2);
    SoeEngine eng(smallCfg(), pol, 2, &root);
    eng.onSwitchIn(0, 0);

    // Produce counters: thread 0 slow and missy, thread 1 fast.
    for (int i = 0; i < 1000; ++i)
        eng.onRetire(0, Tick(10 + i));
    eng.onHeadStall(0, 1000, 1010, 1300, true);
    eng.onSwitchOut(0, 1010);
    eng.onSwitchIn(1, 1016);
    for (int i = 0; i < 8000; ++i)
        eng.onRetire(1, Tick(1020 + i / 2));
    eng.onSwitchOut(1, 5100);

    // Cross the delta boundary.
    eng.onSwitchIn(0, 5100);
    eng.onCycle(0, 10000);
    EXPECT_EQ(eng.samples.value(), 1u);
    // Quotas are installed on both threads (finite for at least the
    // fast one).
    EXPECT_TRUE(eng.context(1).deficit.limited());
}

TEST(Engine, SampleHookSeesWindowData)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 2, &root);
    std::vector<SampleWindowRecord> recs;
    eng.setSampleHook([&](const SampleWindowRecord &r) {
        recs.push_back(r);
    });
    eng.onSwitchIn(0, 0);
    for (int i = 0; i < 500; ++i)
        eng.onRetire(0, Tick(i));
    eng.onCycle(0, 10000);
    eng.onCycle(0, 20000);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].endTick, 10000u);
    EXPECT_EQ(recs[0].threads.size(), 2u);
    EXPECT_EQ(recs[0].threads[0].instrs, 500u);
    EXPECT_EQ(recs[1].threads[0].instrs, 0u);
}

TEST(Engine, FinalizeClosesResidency)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeEngine eng(smallCfg(), pol, 1, &root);
    eng.onSwitchIn(0, 0);
    eng.onRetire(0, 10);
    eng.finalize(510);
    EXPECT_EQ(eng.context(0).totals.cycles, 500u);
    // Idempotent.
    eng.finalize(510);
    EXPECT_EQ(eng.context(0).totals.cycles, 500u);
}

TEST(Engine, TimeSharePolicyUsesCycleQuota)
{
    statistics::Group root("t");
    TimeSharePolicy pol(400);
    SoeEngine eng(smallCfg(), pol, 2, &root);
    eng.onSwitchIn(0, 0);
    // Misses never switch...
    EXPECT_EQ(eng.onHeadStall(0, 5, 100, 400, true), invalidThreadId);
    // ...the cycle quota does.
    EXPECT_FALSE(eng.onCycle(0, 399));
    EXPECT_TRUE(eng.onCycle(0, 400));
}

TEST(Engine, RejectsQuotaLargerThanDeltaShare)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeConfig bad = smallCfg();
    bad.maxCyclesQuota = bad.delta; // > delta/2 for two threads
    EXPECT_THROW(SoeEngine(bad, pol, 2, &root), PanicError);
}

TEST(Engine, WatchdogFiresOnNoProgress)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeConfig cfg = smallCfg();
    cfg.maxCyclesQuota = 0;
    SoeEngine eng(cfg, pol, 2, &root);
    eng.onSwitchIn(0, 0);
    // Thread 0 stays resident but never retires: livelock.
    EXPECT_THROW(
        {
            for (Tick t = 100; t <= (watchdogWindowLimit + 2) * cfg.delta;
                 t += 100)
                eng.onCycle(0, t);
        },
        WatchdogTimeout);
}

TEST(Engine, WatchdogResetsOnRetirement)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeConfig cfg = smallCfg();
    cfg.maxCyclesQuota = 0;
    SoeEngine eng(cfg, pol, 2, &root);
    eng.onSwitchIn(0, 0);
    // One retirement every watchdogWindowLimit windows leaves
    // watchdogWindowLimit - 1 starved windows in a row at most.
    const Tick period = watchdogWindowLimit * cfg.delta;
    for (Tick t = 100; t <= 3 * period; t += 100) {
        eng.onCycle(0, t);
        if (t % period == 100)
            eng.onRetire(0, t);
    }
    SUCCEED();
}

TEST(Engine, WatchdogIgnoresIdleEngine)
{
    statistics::Group root("t");
    MissOnlyPolicy pol;
    SoeConfig cfg = smallCfg();
    cfg.maxCyclesQuota = 0;
    SoeEngine eng(cfg, pol, 2, &root);
    // No thread ever switched in: windows are inactive, not starved.
    for (Tick t = 100; t <= 20 * cfg.delta; t += 100)
        eng.onCycle(0, t);
    SUCCEED();
}
