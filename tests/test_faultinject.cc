/**
 * @file
 * Tests for the fault-injection harness (sim/faultinject.hh): every
 * scenario must satisfy its contract (the right SimError class or
 * graceful degradation), deterministically for a fixed seed.
 */

#include <gtest/gtest.h>

#include "sim/errors.hh"
#include "sim/faultinject.hh"

using namespace soefair;
using namespace soefair::sim;

TEST(FaultInject, NamesRoundTrip)
{
    for (FaultClass f : allFaultClasses()) {
        FaultClass back;
        ASSERT_TRUE(faultByName(faultName(f), back)) << faultName(f);
        EXPECT_EQ(back, f);
    }
    FaultClass out;
    EXPECT_FALSE(faultByName("no-such-fault", out));
}

TEST(FaultInject, ExitCodesMatchErrorTaxonomy)
{
    EXPECT_EQ(expectedExitCode(FaultClass::GarbageConfig),
              InputError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::CounterCorruption),
              EstimatorError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::StuckMiss),
              WatchdogTimeout::code);
}

TEST(FaultInject, EveryScenarioPassesAcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
        for (FaultClass f : allFaultClasses()) {
            auto rep = runFaultScenario(f, seed);
            EXPECT_TRUE(rep.passed)
                << rep.scenario << " seed " << seed << ": "
                << rep.detail;
        }
    }
}

TEST(FaultInject, SameSeedIsDeterministic)
{
    for (FaultClass f : allFaultClasses()) {
        auto a = runFaultScenario(f, 7);
        auto b = runFaultScenario(f, 7);
        EXPECT_EQ(a.passed, b.passed) << a.scenario;
        EXPECT_EQ(a.detail, b.detail) << a.scenario;
    }
}

TEST(FaultInject, ProvokeThrowsTheTypedError)
{
    EXPECT_THROW(provokeFault(FaultClass::GarbageConfig, 1),
                 InputError);
    EXPECT_THROW(provokeFault(FaultClass::CounterCorruption, 1),
                 EstimatorError);
    EXPECT_THROW(provokeFault(FaultClass::StuckMiss, 1),
                 WatchdogTimeout);
}
