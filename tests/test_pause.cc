/**
 * @file
 * Tests for the pause/yield switch trigger (paper Section 6,
 * footnote 7: explicit instructions like x86 `pause` hint that a
 * short execution pause can be done, e.g. in busy-wait loops).
 */

#include <gtest/gtest.h>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

/** A busy-wait ("spinlock") workload: mostly ALU + pause hints. */
workload::Profile
spinProfile(double pause_weight)
{
    workload::Profile p;
    p.name = "spin";
    p.code = {64, 4, 8, 0.2, 0.02};
    workload::Phase ph;
    ph.wIntAlu = 1.0;
    ph.wLoad = 0.2;
    ph.wStore = 0.02;
    ph.wPause = pause_weight;
    ph.depGeoP = 0.3;
    ph.depNone = 0.4;
    ph.hotBytes = 4096;
    p.phases = {ph};
    return p;
}

} // namespace

TEST(Pause, GeneratorEmitsPauseOps)
{
    workload::WorkloadGenerator gen(spinProfile(0.2), 0, 3);
    int pauses = 0;
    for (int i = 0; i < 10000; ++i) {
        auto op = gen.next();
        if (op.op == isa::OpClass::Pause) {
            ++pauses;
            EXPECT_EQ(op.dest, isa::invalidReg);
            EXPECT_EQ(op.src0, isa::invalidReg);
        }
    }
    // ~0.2/1.42 of non-branch slots.
    EXPECT_GT(pauses, 500);
    EXPECT_LT(pauses, 3000);
}

TEST(Pause, SpecProfilesEmitNoPauses)
{
    workload::WorkloadGenerator gen(
        workload::spec::byName("gcc"), 0, 3);
    for (int i = 0; i < 20000; ++i)
        EXPECT_NE(gen.next().op, isa::OpClass::Pause);
}

TEST(Pause, SpinThreadYieldsToWorker)
{
    // A spinning thread paired with real work: with pause switching
    // the spinner yields and the worker keeps most of the core.
    auto mc = MachineConfig::benchDefault();
    System sys(mc, {ThreadSpec{spinProfile(0.15), 1},
                    ThreadSpec::benchmark("bzip2", 2)});
    sys.warmCaches(50 * 1000);
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(mc.soe, pol, 2, &sys.stats());
    sys.start(&eng);
    sys.step(200 * 1000);
    EXPECT_GT(sys.core().switchesPause.value(), 40u);
    // The worker (thread 1) gets the larger share of retirements
    // even though the spinner never misses.
    EXPECT_GT(sys.core().retired(1), sys.core().retired(0));
}

TEST(Pause, WithoutPauseSwitchingSpinnerHogsCore)
{
    auto mc = MachineConfig::benchDefault();
    mc.soe.switchOnPause = false;
    System sys(mc, {ThreadSpec{spinProfile(0.15), 1},
                    ThreadSpec::benchmark("bzip2", 2)});
    sys.warmCaches(50 * 1000);
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(mc.soe, pol, 2, &sys.stats());
    sys.start(&eng);
    sys.step(200 * 1000);
    EXPECT_EQ(sys.core().switchesPause.value(), 0u);
    // The miss-free spinner only leaves via the max-cycles quota,
    // so it keeps the majority of the core.
    EXPECT_GT(sys.core().retired(0), sys.core().retired(1));
}
