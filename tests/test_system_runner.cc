/** @file Tests for the System builder and the experiment Runner. */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "harness/table.hh"
#include "sim/errors.hh"
#include "soe/policies.hh"
#include "workload/inst_stream.hh"

using namespace soefair;
using namespace soefair::harness;

TEST(System, BuildsThreadsInOrder)
{
    System sys(MachineConfig::benchDefault(),
               {ThreadSpec::benchmark("gcc", 1),
                ThreadSpec::benchmark("eon", 2)});
    EXPECT_EQ(sys.numThreads(), 2u);
    EXPECT_EQ(sys.generator(0).profile().name, "gcc");
    EXPECT_EQ(sys.generator(1).profile().name, "eon");
    EXPECT_EQ(sys.generator(0).threadId(), 0);
    EXPECT_EQ(sys.generator(1).threadId(), 1);
}

TEST(System, WarmCachesConsumesGenerators)
{
    System sys(MachineConfig::benchDefault(),
               {ThreadSpec::benchmark("gcc", 1)});
    EXPECT_EQ(sys.generator(0).generated(), 0u);
    sys.warmCaches(5000);
    // The stream's producer generated the 5000 warmup ops and may
    // already run up to one ring ahead of them.
    const std::uint64_t generated = sys.generator(0).generated();
    EXPECT_GE(generated, 5000u);
    EXPECT_LE(generated, 5000u + workload::InstStream::capacity);
    // Caches now hold lines.
    EXPECT_GT(sys.hierarchy().l1d().fills.value() +
              sys.hierarchy().l2().fills.value(), 0u);

    // Warmup used up ops 1..5000: the pipeline starts at op 5001.
    InstSeqNum firstRetired = invalidSeqNum;
    sys.core().setRetireHook([&](const cpu::DynInst &inst, Tick) {
        if (firstRetired == invalidSeqNum)
            firstRetired = inst.op.seqNum;
    });
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(MachineConfig::benchDefault().soe, pol, 1,
                       &sys.stats());
    sys.start(&eng);
    while (firstRetired == invalidSeqNum && sys.now() < 100000)
        sys.step(100);
    EXPECT_EQ(firstRetired, 5001u);
}

TEST(System, WarmCachesStartsOneProducerPerThread)
{
    {
        System sys(MachineConfig::benchDefault(),
                   {ThreadSpec::benchmark("gcc", 1),
                    ThreadSpec::benchmark("eon", 2)});
        EXPECT_EQ(workload::InstStream::liveProducers(), 0u);
        sys.warmCaches(1000);
        EXPECT_EQ(workload::InstStream::liveProducers(), 2u);
        // start() attaches the running streams; it starts no more.
        soe::MissOnlyPolicy pol;
        soe::SoeEngine eng(MachineConfig::benchDefault().soe, pol, 2,
                           &sys.stats());
        sys.start(&eng);
        EXPECT_EQ(workload::InstStream::liveProducers(), 2u);
    }
    EXPECT_EQ(workload::InstStream::liveProducers(), 0u);
}

TEST(System, GeneratedCountIncludesRunAhead)
{
    // generated() is read while the producer runs, as perfbench does
    // after a run: the ops retired so far, plus up to one ring of
    // ops generated ahead of fetch.
    System sys(MachineConfig::benchDefault(),
               {ThreadSpec::benchmark("gcc", 1)});
    sys.warmCaches(1000);
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(MachineConfig::benchDefault().soe, pol, 1,
                       &sys.stats());
    sys.start(&eng);
    sys.step(20000);
    const std::uint64_t retired = sys.core().retired(0);
    const std::uint64_t generated = sys.generator(0).generated();
    EXPECT_GT(retired, 0u);
    EXPECT_GE(generated, 1000 + retired);
    EXPECT_LE(generated,
              1000 + retired + workload::InstStream::capacity);
}

TEST(System, StepAdvancesTime)
{
    System sys(MachineConfig::benchDefault(),
               {ThreadSpec::benchmark("eon", 2)});
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(MachineConfig::benchDefault().soe, pol, 1,
                       &sys.stats());
    sys.start(&eng);
    EXPECT_EQ(sys.now(), 0u);
    sys.step(123);
    EXPECT_EQ(sys.now(), 123u);
}

TEST(System, StartTwicePanics)
{
    System sys(MachineConfig::benchDefault(),
               {ThreadSpec::benchmark("eon", 2)});
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(MachineConfig::benchDefault().soe, pol, 1,
                       &sys.stats());
    sys.start(&eng);
    EXPECT_THROW(sys.start(&eng), PanicError);
}

TEST(System, StartWithoutAnEngineIsAPanic)
{
    // The core has no engine-less mode: a null engine is refused
    // before any thread's producer starts.
    System sys(MachineConfig::benchDefault(),
               {ThreadSpec::benchmark("gcc", 1),
                ThreadSpec::benchmark("eon", 2)});
    EXPECT_THROW(sys.start(nullptr), PanicError);
    EXPECT_EQ(workload::InstStream::liveProducers(), 0u);
}

TEST(MachineConfig, ValidateRejectsEachOutOfRangeValue)
{
    MachineConfig::benchDefault().validate(); // the baseline is valid
    const std::pair<const char *, std::function<void(MachineConfig &)>>
        cases[] = {
            {"retire width 0", [](MachineConfig &mc) {
                 mc.core.retireWidth = 0;
             }},
            {"ROB narrower than retire width", [](MachineConfig &mc) {
                 mc.core.robEntries = 1;
                 mc.core.retireWidth = 4;
             }},
            {"L1D associativity 0", [](MachineConfig &mc) {
                 mc.mem.l1d.assoc = 0;
             }},
            {"memory latency 0", [](MachineConfig &mc) {
                 mc.mem.memLatency = 0;
             }},
            {"NaN miss latency", [](MachineConfig &mc) {
                 mc.soe.missLatency =
                     std::numeric_limits<double>::quiet_NaN();
             }},
            {"max-cycles quota beyond delta", [](MachineConfig &mc) {
                 mc.soe.maxCyclesQuota = mc.soe.delta * 2;
             }},
            {"delta 0", [](MachineConfig &mc) { mc.soe.delta = 0; }},
        };
    for (const auto &[what, corrupt] : cases) {
        MachineConfig mc = MachineConfig::benchDefault();
        corrupt(mc);
        EXPECT_THROW(mc.validate(), InputError) << what;
    }
}

TEST(RunConfig, ScalingAppliesToInstructionCounts)
{
    RunConfig rc;
    rc.warmupInstrs = 1000;
    rc.timingWarmInstrs = 500;
    rc.measureInstrs = 10000;
    auto s = rc.scaled(2.0);
    EXPECT_EQ(s.warmupInstrs, 2000u);
    EXPECT_EQ(s.timingWarmInstrs, 1000u);
    EXPECT_EQ(s.measureInstrs, 20000u);
    EXPECT_EQ(s.maxCycles, rc.maxCycles);
}

TEST(RunConfig, ScalingHasMeasureFloor)
{
    RunConfig rc;
    rc.measureInstrs = 10000;
    EXPECT_EQ(rc.scaled(0.01).measureInstrs, 1000u);
}

TEST(RunConfig, FromEnvParsesScale)
{
    setenv("SOEFAIR_SCALE", "0.5", 1);
    RunConfig base;
    base.measureInstrs = 10000;
    auto rc = RunConfig::fromEnv(base);
    EXPECT_EQ(rc.measureInstrs, 5000u);
    unsetenv("SOEFAIR_SCALE");
    EXPECT_EQ(RunConfig::fromEnv(base).measureInstrs, 10000u);
}

TEST(Runner, SingleThreadWindowRecording)
{
    Runner runner(MachineConfig::benchDefault());
    RunConfig rc;
    rc.warmupInstrs = 50 * 1000;
    rc.timingWarmInstrs = 10 * 1000;
    rc.measureInstrs = 40 * 1000;
    auto res = runner.runSingleThread(ThreadSpec::benchmark("eon", 2),
                                      rc, 10 * 1000);
    ASSERT_GE(res.cyclesAtInstr.size(), 4u);
    // Cumulative cycles are strictly increasing.
    for (std::size_t i = 1; i < res.cyclesAtInstr.size(); ++i)
        EXPECT_GT(res.cyclesAtInstr[i], res.cyclesAtInstr[i - 1]);
    EXPECT_EQ(res.windowInstrs, 10000u);
}

TEST(Runner, StResultsAreConsistent)
{
    Runner runner(MachineConfig::benchDefault());
    RunConfig rc;
    rc.warmupInstrs = 60 * 1000;
    rc.timingWarmInstrs = 10 * 1000;
    rc.measureInstrs = 50 * 1000;
    auto res = runner.runSingleThread(
        ThreadSpec::benchmark("bzip2", 3), rc);
    EXPECT_GE(res.instrs, rc.measureInstrs);
    EXPECT_NEAR(res.ipc, double(res.instrs) / double(res.cycles),
                1e-12);
    EXPECT_GT(res.ipm, 0.0);
}

namespace
{

/** Expect every space-separated field of a journal payload to parse
 *  as a finite number. */
void
expectFiniteFields(const std::string &payload)
{
    std::istringstream is(payload);
    std::string field;
    while (is >> field) {
        char *end = nullptr;
        const double v = std::strtod(field.c_str(), &end);
        EXPECT_TRUE(*end == '\0' && std::isfinite(v))
            << "field '" << field << "' of payload: " << payload;
    }
}

} // namespace

TEST(Runner, FairnessRunIsNanFree)
{
    // `SOEFAIR_SCALE=0.1 soefair_cli run-soe mcf mgrid --policy
    // fairness --F 0.5`, in process: the reference runs, the SOE
    // run's journal payload and its full statistics dump carry no
    // NaN or infinity.
    const MachineConfig mc = MachineConfig::benchDefault();
    Runner runner(mc);
    RunConfig rc = RunConfig{}.scaled(0.1);
    const std::vector<ThreadSpec> specs{ThreadSpec::benchmark("mcf", 1),
                                        ThreadSpec::benchmark("mgrid", 2)};
    for (const auto &spec : specs)
        expectFiniteFields(encodeStPayload(runner.runSingleThread(spec, rc)));

    std::ostringstream stats;
    rc.statsDump = &stats;
    soe::FairnessPolicy policy(0.5, mc.soe.missLatency, 2);
    const SoeRunResult res = runner.runSoe(specs, policy, rc);
    EXPECT_FALSE(res.timedOut);
    EXPECT_GT(res.switchesForced, 0u);
    expectFiniteFields(encodeSoePayload(res));

    std::string dump = stats.str();
    ASSERT_FALSE(dump.empty());
    for (char &c : dump)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    EXPECT_EQ(dump.find("nan"), std::string::npos) << stats.str();
}

TEST(Sweep, PairSeedsDecorrelateHomogeneousPairs)
{
    EXPECT_NE(pairSeed(0), pairSeed(1));
}

TEST(Sweep, LevelLookup)
{
    PairResult pr;
    pr.nameA = "a";
    pr.nameB = "b";
    LevelResult l0;
    l0.targetF = 0.0;
    LevelResult l1;
    l1.targetF = 0.5;
    pr.levels = {l0, l1};
    EXPECT_EQ(pr.level(0.5).targetF, 0.5);
    EXPECT_THROW(pr.level(0.25), FatalError);
    EXPECT_EQ(pr.label(), "a:b");
}

TEST(TextTable, FormatsAlignedColumns)
{
    TextTable t({"name", "ipc"});
    t.addRow({"gcc", TextTable::num(0.85, 2)});
    t.addRow({"eon", TextTable::num(2.5, 2)});
    std::ostringstream os;
    t.print(os);
    auto s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("0.85"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchPanics)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}
