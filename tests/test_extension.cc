/**
 * @file
 * Tests for the Section 6 extensions: switch-on-L1-miss events and
 * runtime-measured event latency, plus the engine's per-residency
 * histograms.
 */

#include <gtest/gtest.h>

#include "core/metrics.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "mem/hierarchy.hh"
#include "sim/event_queue.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"

using namespace soefair;
using namespace soefair::harness;

TEST(Extension, HierarchyReportsL1Miss)
{
    statistics::Group root("t");
    EventQueue events;
    mem::Hierarchy hier(mem::HierarchyConfig{}, events, &root);
    const Addr a = (Addr(1) << 40) | 0x40;

    auto cold = hier.load(0, a, 0);
    EXPECT_TRUE(cold.l1Miss);
    events.runUntil(cold.completion);
    auto warm = hier.load(0, a, cold.completion + 1);
    EXPECT_FALSE(warm.l1Miss);

    // Evict from L1 but keep in L2: L1 miss without L2 miss.
    for (int i = 1; i <= 8; ++i)
        hier.warmData(0, a + Addr(i) * 4096, false);
    auto l2hit = hier.load(0, a, cold.completion + 100);
    EXPECT_TRUE(l2hit.l1Miss);
    EXPECT_FALSE(l2hit.l2Miss);
}

TEST(Extension, L1StallsIgnoredByDefault)
{
    statistics::Group root("t");
    soe::MissOnlyPolicy pol;
    soe::SoeConfig cfg;
    cfg.delta = 10000;
    cfg.maxCyclesQuota = 5000;
    soe::SoeEngine eng(cfg, pol, 2, &root);
    eng.onSwitchIn(0, 0);
    // An L1 (non-L2) head stall must neither switch nor count.
    EXPECT_EQ(eng.onHeadStall(0, 7, 100, 115, false),
              invalidThreadId);
    EXPECT_EQ(eng.context(0).window.misses, 0u);
    EXPECT_EQ(eng.missEvents.value(), 0u);
}

TEST(Extension, L1StallsSwitchWhenEnabled)
{
    statistics::Group root("t");
    soe::MissOnlyPolicy pol;
    soe::SoeConfig cfg;
    cfg.delta = 10000;
    cfg.maxCyclesQuota = 5000;
    cfg.switchOnL1Miss = true;
    soe::SoeEngine eng(cfg, pol, 2, &root);
    eng.onSwitchIn(0, 0);
    EXPECT_EQ(eng.onHeadStall(0, 7, 100, 115, false), 1);
    EXPECT_EQ(eng.context(0).window.misses, 1u);
}

TEST(Extension, MeasuredLatencyReachesSampleRecord)
{
    statistics::Group root("t");
    soe::MissOnlyPolicy pol;
    soe::SoeConfig cfg;
    cfg.delta = 10000;
    cfg.maxCyclesQuota = 5000;
    soe::SoeEngine eng(cfg, pol, 2, &root);
    std::vector<soe::SampleWindowRecord> recs;
    eng.setSampleHook([&](const soe::SampleWindowRecord &r) {
        recs.push_back(r);
    });
    eng.onSwitchIn(0, 0);
    eng.onRetire(0, 1);
    // Three L2 stalls with remaining latencies 280, 300, 320.
    eng.onHeadStall(0, 10, 100, 380, true);
    eng.onHeadStall(0, 11, 200, 500, true);
    eng.onHeadStall(0, 12, 300, 620, true);
    eng.onCycle(0, 10000);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_NEAR(recs[0].measuredMissLat, 300.0, 1e-9);
    // Next window with no events reports 0.
    eng.onCycle(0, 20000);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_DOUBLE_EQ(recs[1].measuredMissLat, 0.0);
}

TEST(Extension, MeasuredModePolicyUsesMeasuredValue)
{
    // With a measured latency of 600 the quota for the fast thread
    // must be larger than with the fixed 300 (Eq. 9 scales with
    // CPM_min + Miss_lat).
    using core::HwCounters;
    auto counters = [](double ipm, double cpm, std::uint64_t m) {
        return HwCounters{std::uint64_t(ipm * double(m)),
                          std::uint64_t(cpm * double(m)), m};
    };
    std::vector<HwCounters> window = {counters(1000, 400, 20),
                                      counters(15000, 6000, 3)};

    soe::FairnessPolicy fixed(0.5, 300.0, 2, false);
    soe::FairnessPolicy measured(0.5, 300.0, 2, true);
    auto qFixed = fixed.recompute(window, 600.0);
    auto qMeasured = measured.recompute(window, 600.0);
    EXPECT_GT(qMeasured[1], qFixed[1]);
    EXPECT_TRUE(measured.usesMeasuredMissLat());
    EXPECT_FALSE(fixed.usesMeasuredMissLat());
}

TEST(Extension, ResidencyHistogramsTrackQuota)
{
    statistics::Group root("t");
    soe::FixedQuotaPolicy pol{64.0};
    soe::SoeConfig cfg;
    cfg.delta = 10000;
    cfg.maxCyclesQuota = 5000;
    soe::SoeEngine eng(cfg, pol, 2, &root);
    eng.onCycle(0, 10000); // install the quota

    // Drive retirements; every forced switch ends a residency.
    Tick now = 10000;
    ThreadID tid = 0;
    for (int r = 0; r < 40; ++r) {
        eng.onSwitchIn(tid, now);
        while (!eng.onRetire(tid, ++now)) {
        }
        eng.onSwitchOut(tid, now);
        tid = ThreadID(1 - tid);
    }
    EXPECT_GE(eng.instrsPerSwitch.count(), 40u);
    EXPECT_NEAR(eng.instrsPerSwitch.mean(), 64.0, 4.0);
    EXPECT_GT(eng.residencyCycles.mean(), 0.0);
}

TEST(Extension, L1SwitchModeRunsEndToEnd)
{
    // bzip2's working set misses the L1 but largely hits the L2:
    // with switch-on-L1-miss the switch count rises sharply and the
    // run still completes correctly.
    auto mc = MachineConfig::benchDefault();
    RunConfig rc;
    rc.warmupInstrs = 100 * 1000;
    rc.timingWarmInstrs = 20 * 1000;
    rc.measureInstrs = 60 * 1000;
    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark("bzip2", 1),
        ThreadSpec::benchmark("vortex", 2)};

    Runner base(mc);
    soe::MissOnlyPolicy p1;
    auto res0 = base.runSoe(specs, p1, rc);

    mc.soe.switchOnL1Miss = true;
    Runner ext(mc);
    soe::MissOnlyPolicy p2;
    auto res1 = ext.runSoe(specs, p2, rc);

    EXPECT_GT(res1.switchesMiss, 2 * res0.switchesMiss);
    EXPECT_GE(res1.threads[0].instrs, rc.measureInstrs);
    EXPECT_GE(res1.threads[1].instrs, rc.measureInstrs);
}

TEST(Extension, MeasuredMissLatTracksMachineLatency)
{
    // On a machine with 600-cycle memory, the engine's measured
    // event latency must land near 600, not the configured 300.
    auto mc = MachineConfig::benchDefault();
    mc.mem.memLatency = 581;
    System sys(mc, {ThreadSpec::benchmark("swim", 1),
                    ThreadSpec::benchmark("applu", 2)});
    sys.warmCaches(100 * 1000);
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(mc.soe, pol, 2, &sys.stats());
    std::vector<double> measured;
    eng.setSampleHook([&](const soe::SampleWindowRecord &r) {
        if (r.measuredMissLat > 0)
            measured.push_back(r.measuredMissLat);
    });
    sys.start(&eng);
    sys.step(400 * 1000);
    ASSERT_GE(measured.size(), 2u);
    double mean = 0;
    for (double m : measured)
        mean += m;
    mean /= double(measured.size());
    EXPECT_GT(mean, 450.0);
    EXPECT_LT(mean, 750.0);
}
