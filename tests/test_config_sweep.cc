/**
 * @file
 * Parameterized machine-configuration sweeps: the simulator must
 * stay structurally sound and produce sane results across the
 * machine design space (not just the Table 3 point).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "config_points.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"

using namespace soefair;
using namespace soefair::harness;
using namespace soefair::config_points;

class ConfigSweep : public ::testing::TestWithParam<ConfigPoint>
{
};

TEST_P(ConfigSweep, SingleThreadRunsSoundly)
{
    const ConfigPoint p = GetParam();
    System sys(machineFor(p), {ThreadSpec::benchmark("bzip2", 9)});
    sys.warmCaches(40 * 1000);
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(machineFor(p).soe, pol, 1, &sys.stats());
    sys.start(&eng);
    for (int i = 0; i < 60; ++i) {
        sys.step(1000);
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()));
        ASSERT_NO_THROW(sys.hierarchy().checkInvariants());
    }
    const double ipc = double(sys.core().retired(0)) / 60000.0;
    EXPECT_GT(ipc, 0.02) << p.name;
    EXPECT_LE(ipc, double(p.dispatchWidth)) << p.name;
}

TEST_P(ConfigSweep, SoeRunsSoundly)
{
    const ConfigPoint p = GetParam();
    System sys(machineFor(p), {ThreadSpec::benchmark("gcc", 9),
                               ThreadSpec::benchmark("swim", 10)});
    sys.warmCaches(40 * 1000);
    soe::FairnessPolicy pol(0.5, 300.0, 2);
    soe::SoeEngine eng(machineFor(p).soe, pol, 2, &sys.stats());
    sys.start(&eng);
    for (int i = 0; i < 60; ++i) {
        sys.step(1000);
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()));
    }
    EXPECT_GT(sys.core().retired(0), 100u) << p.name;
    EXPECT_GT(sys.core().retired(1), 100u) << p.name;
    EXPECT_GT(sys.core().switchesMiss.value(), 5u) << p.name;
}

INSTANTIATE_TEST_SUITE_P(MachineSpace, ConfigSweep,
                         ::testing::ValuesIn(points()), pointName);

TEST(ConfigSweep, WiderMachineIsNotSlower)
{
    // eon (high-ILP, cache resident) must benefit from a wider
    // machine; a gross inversion indicates a scheduling bug.
    auto ipcFor = [](const ConfigPoint &p) {
        System sys(machineFor(p), {ThreadSpec::benchmark("eon", 9)});
        sys.warmCaches(150 * 1000);
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(machineFor(p).soe, pol, 1, &sys.stats());
        sys.start(&eng);
        sys.step(80 * 1000);
        return double(sys.core().retired(0)) / 80000.0;
    };
    const double narrow = ipcFor(points()[1]);
    const double table3 = ipcFor(points()[2]);
    EXPECT_GT(table3, narrow);
}

TEST(ConfigSweep, LargerL2ReducesMisses)
{
    auto missesFor = [](unsigned l2KiB) {
        ConfigPoint p = points()[2];
        p.l2KiB = l2KiB;
        System sys(machineFor(p), {ThreadSpec::benchmark("swim", 9)});
        sys.warmCaches(60 * 1000);
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(machineFor(p).soe, pol, 1, &sys.stats());
        sys.start(&eng);
        sys.step(60 * 1000);
        return sys.hierarchy().l2().misses.value();
    };
    // swim streams through 64 MiB: both configs miss, but the tiny
    // L2 must not miss LESS. (Streaming defeats both, so allow
    // equality within noise.)
    EXPECT_GE(missesFor(256) + 50, missesFor(4096));
}
