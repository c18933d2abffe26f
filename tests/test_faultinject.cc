/**
 * @file
 * Tests for the fault-injection harness (sim/faultinject.hh): every
 * scenario must satisfy its contract (the right SimError class or
 * graceful degradation), deterministically for a fixed seed.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "harness/env.hh"
#include "sim/errors.hh"
#include "sim/faultinject.hh"

using namespace soefair;
using namespace soefair::sim;

namespace
{

/**
 * Scratch directory for scenario artifacts, private to this process
 * and removed at exit. ctest runs each test in its own process, in
 * parallel under -j; a shared directory let one test rewrite the
 * trace file another was reading.
 */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const std::string tmp = harness::env::getOr("TMPDIR", "");
        path = (tmp.empty() ? std::string("/tmp") : tmp) +
               "/soefair_faultinject_" + std::to_string(::getpid());
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string path;
};

std::string
scratchDir()
{
    static const ScratchDir dir;
    return dir.path;
}

} // namespace

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
    EXPECT_EQ(expectedExitCode(FaultClass::TruncatedTrace),
              InputError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::CorruptTraceHeader),
              InputError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::CorruptTraceRecord),
              InputError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::GarbageConfig),
              InputError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::CounterCorruption),
              EstimatorError::code);
    EXPECT_EQ(expectedExitCode(FaultClass::StuckMiss),
              WatchdogTimeout::code);
    EXPECT_EQ(expectedExitCode(FaultClass::CorruptCheckpoint),
              CheckpointError::code);
}

TEST(FaultInject, EveryScenarioPassesAcrossSeeds)
{
    const std::string dir = scratchDir();
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 42ull}) {
        for (FaultClass f : allFaultClasses()) {
            auto rep = runFaultScenario(f, seed, dir);
            EXPECT_TRUE(rep.passed)
                << rep.scenario << " seed " << seed << ": "
                << rep.detail;
        }
    }
}

TEST(FaultInject, SameSeedIsDeterministic)
{
    const std::string dir = scratchDir();
    for (FaultClass f : allFaultClasses()) {
        auto a = runFaultScenario(f, 7, dir);
        auto b = runFaultScenario(f, 7, dir);
        EXPECT_EQ(a.passed, b.passed) << a.scenario;
        EXPECT_EQ(a.detail, b.detail) << a.scenario;
    }
}

TEST(FaultInject, ProvokeThrowsTheTypedError)
{
    const std::string dir = scratchDir();
    EXPECT_THROW(provokeFault(FaultClass::TruncatedTrace, 1, dir),
                 InputError);
    EXPECT_THROW(provokeFault(FaultClass::GarbageConfig, 1, dir),
                 InputError);
    EXPECT_THROW(provokeFault(FaultClass::CounterCorruption, 1, dir),
                 EstimatorError);
    EXPECT_THROW(provokeFault(FaultClass::StuckMiss, 1, dir),
                 WatchdogTimeout);
    EXPECT_THROW(provokeFault(FaultClass::CorruptCheckpoint, 1, dir),
                 CheckpointError);
}
