/**
 * @file
 * End-to-end single-thread runs of the core: forward progress,
 * plausible IPC ranges, determinism, blocking behaviour on L2
 * misses, and the issue stage's wakeup bookkeeping against a
 * reference that polls producers the slow way.
 */

#include <gtest/gtest.h>

#include <vector>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"

using namespace soefair;
using harness::MachineConfig;
using harness::RunConfig;
using harness::Runner;
using harness::System;
using harness::ThreadSpec;

namespace
{

/**
 * Reference operand check for the op at ROB position `idx`: each
 * source's producer is the youngest older ROB entry writing that
 * register (retirement is in order, so an absent one has retired),
 * and the operand is available once that producer issued and its
 * result arrived.
 */
bool
referenceReady(const std::vector<const cpu::DynInst *> &rob,
               std::size_t idx, Tick now)
{
    const cpu::DynInst &e = *rob[idx];
    for (isa::RegId reg : {e.op.src0, e.op.src1}) {
        if (reg == isa::invalidReg)
            continue;
        for (std::size_t j = idx; j-- > 0;) {
            if (rob[j]->op.dest == reg) {
                if (!rob[j]->completedBy(now))
                    return false;
                break;
            }
        }
    }
    return true;
}

/**
 * Step `sys` one tick at a time and check, before every tick, that
 * each waiting op's wakeup state says "ready" exactly when the
 * reference does, and that the core's structural invariants hold.
 */
void
checkWakeupAgainstReference(System &sys, int ticks)
{
    sys.setFastForward(false);
    for (int i = 0; i < ticks; ++i) {
        const Tick next = sys.now() + 1;
        std::vector<const cpu::DynInst *> rob;
        for (const cpu::DynInst &e : sys.core().robEntries())
            rob.push_back(&e);
        for (std::size_t k = 0; k < rob.size(); ++k) {
            if (rob[k]->issued)
                continue;
            ASSERT_EQ(rob[k]->operandsReady(next),
                      referenceReady(rob, k, next))
                << "seq " << rob[k]->op.seqNum << " at tick " << next;
        }
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()));
        sys.step(1);
    }
}

RunConfig
smallRun()
{
    RunConfig rc;
    rc.warmupInstrs = 150 * 1000;
    rc.timingWarmInstrs = 30 * 1000;
    rc.measureInstrs = 60 * 1000;
    return rc;
}

} // namespace

TEST(CoreSingleThread, MakesForwardProgress)
{
    System sys(MachineConfig::paperDefault(),
               {ThreadSpec::benchmark("eon", 7)});
    soe::MissOnlyPolicy policy;
    soe::SoeEngine engine(MachineConfig::paperDefault().soe, policy, 1,
                          &sys.stats());
    sys.start(&engine);
    sys.step(20 * 1000);
    EXPECT_GT(sys.core().retired(0), 1000u);
}

TEST(CoreSingleThread, CacheResidentBenchmarkHasHighIpc)
{
    Runner runner(MachineConfig::paperDefault());
    auto res = runner.runSingleThread(ThreadSpec::benchmark("eon", 7),
                                      smallRun());
    // eon stands in for a cache-resident high-IPC workload.
    EXPECT_GT(res.ipc, 1.0);
    EXPECT_LT(res.ipc, 4.0);
    EXPECT_GT(res.ipm, 3000.0);
}

TEST(CoreSingleThread, StreamingBenchmarkIsMissBound)
{
    Runner runner(MachineConfig::paperDefault());
    auto res = runner.runSingleThread(ThreadSpec::benchmark("swim", 7),
                                      smallRun());
    // swim streams: misses every ~1k instructions drag IPC down.
    EXPECT_LT(res.ipm, 4000.0);
    EXPECT_GT(res.misses, 10u);
    EXPECT_LT(res.ipc, 1.5);
}

TEST(CoreSingleThread, DeterministicAcrossRuns)
{
    Runner runner(MachineConfig::paperDefault());
    auto a = runner.runSingleThread(ThreadSpec::benchmark("gcc", 3),
                                    smallRun());
    auto b = runner.runSingleThread(ThreadSpec::benchmark("gcc", 3),
                                    smallRun());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.misses, b.misses);
}

TEST(CoreSingleThread, InvariantsHoldDuringRun)
{
    System sys(MachineConfig::paperDefault(),
               {ThreadSpec::benchmark("gcc", 11)});
    soe::MissOnlyPolicy policy;
    soe::SoeEngine engine(MachineConfig::paperDefault().soe, policy, 1,
                          &sys.stats());
    sys.start(&engine);
    for (int i = 0; i < 200; ++i) {
        sys.step(100);
        ASSERT_NO_THROW(sys.core().checkInvariants(sys.now()));
        ASSERT_NO_THROW(sys.hierarchy().checkInvariants());
    }
}

TEST(CoreSingleThread, OperandsWakeExactlyAtProducerCompletion)
{
    // gcc mixes 1-cycle ALU chains, multi-cycle FP/mul ops and loads
    // that hit or miss, so consumers wait on every latency class.
    System sys(MachineConfig::paperDefault(),
               {ThreadSpec::benchmark("gcc", 5)});
    sys.warmCaches(20 * 1000);
    soe::MissOnlyPolicy policy;
    soe::SoeEngine engine(MachineConfig::paperDefault().soe, policy, 1,
                          &sys.stats());
    sys.start(&engine);
    checkWakeupAgainstReference(sys, 20 * 1000);
    EXPECT_GT(sys.core().retired(0), 5u * 1000);
}

TEST(CoreSingleThread, WakeupLinksSurviveThreadSwitchSquashes)
{
    // mcf switches out on a miss every few hundred cycles and a
    // strict fairness target forces switches on top; each switch
    // squashes ops that still wait on unissued producers.
    const MachineConfig mc = MachineConfig::paperDefault();
    System sys(mc, {ThreadSpec::benchmark("mcf", 3),
                    ThreadSpec::benchmark("gcc", 4)});
    sys.warmCaches(20 * 1000);
    soe::FairnessPolicy policy(1.0, 300.0, 2);
    soe::SoeEngine engine(mc.soe, policy, 2, &sys.stats());
    sys.start(&engine);
    checkWakeupAgainstReference(sys, 30 * 1000);
    const auto &core = sys.core();
    EXPECT_GT(core.switchesMiss.value() + core.switchesForced.value() +
                  core.switchesQuota.value(),
              20u);
    EXPECT_GT(core.squashedOps.value(), 100u);
}
