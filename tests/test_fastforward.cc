/**
 * @file
 * The fast-forward determinism contract (docs/performance.md): with
 * cycle skipping on and off, every statistic, result payload and
 * evaluation CSV must be byte-identical. These are golden
 * byte-for-byte comparisons across seeds, pairs and all enforcement
 * levels; under the ci-asan preset they also run with SOE_AUDIT
 * enabled, which exercises the jump-past-event and sample-boundary
 * audits on every jump. The last tests check that fast-forward pays:
 * it must cover nearly every cycle of a serial pointer chase, and in
 * an optimized build make that chase at least 5x faster to simulate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "sim/invariant.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "workload/profile.hh"

using namespace soefair;
using harness::MachineConfig;
using harness::RunConfig;
using harness::Runner;
using harness::ThreadSpec;

namespace
{

RunConfig
smallRun(bool fast_forward, std::ostream *dump)
{
    RunConfig rc;
    rc.warmupInstrs = 60 * 1000;
    rc.timingWarmInstrs = 10 * 1000;
    rc.measureInstrs = 30 * 1000;
    rc.fastForward = fast_forward;
    rc.statsDump = dump;
    return rc;
}

/** Stats dump + encoded payload of a single-thread run. */
std::string
stGolden(const std::string &bench, std::uint64_t seed, bool ff)
{
    std::ostringstream os;
    Runner runner(MachineConfig::benchDefault());
    auto r = runner.runSingleThread(ThreadSpec::benchmark(bench, seed),
                                    smallRun(ff, &os));
    return harness::encodeStPayload(r) + "\n" + os.str();
}

/**
 * Stats dump + encoded payload of an SOE pair at enforcement level
 * `f` (f == 0 is the miss-only policy, as in the evaluation sweep).
 */
std::string
soeGolden(const std::string &bench_a, const std::string &bench_b,
          std::uint64_t seed_a, std::uint64_t seed_b, double f,
          bool ff, double scale = 1.0)
{
    std::ostringstream os;
    Runner runner(MachineConfig::benchDefault());
    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark(bench_a, seed_a),
        ThreadSpec::benchmark(bench_b, seed_b)};
    const RunConfig rc = smallRun(ff, &os).scaled(scale);
    harness::SoeRunResult r;
    if (f == 0.0) {
        soe::MissOnlyPolicy pol;
        r = runner.runSoe(specs, pol, rc);
    } else {
        soe::FairnessPolicy pol(f, 300.0, 2);
        r = runner.runSoe(specs, pol, rc);
    }
    return harness::encodeSoePayload(r) + "\n" + os.str();
}

/**
 * Serial pointer chase: almost every instruction is a load into a
 * 256 MB chase region that depends on the previous load, so execution
 * is a chain of back-to-back misses with nothing to overlap. About
 * 99% of its simulated cycles are quiescent stalls, the case
 * fast-forward exists for.
 */
ThreadSpec
pointerChase()
{
    workload::Profile p;
    p.name = "pchase";
    // Tiny straight-line code: the I-side must never stall.
    p.code = {64, 6, 10, 0.30, 0.0};
    workload::Phase ph;
    ph.wIntAlu = 0.15;
    ph.wLoad = 1.0;
    ph.wStore = 0.0;
    ph.depGeoP = 0.85;
    ph.depNone = 0.02;
    ph.hotBytes = 4 * 1024;
    ph.chaseBytes = 256ull * 1024 * 1024;
    ph.wRegion[unsigned(workload::RegionKind::Hot)] = 0.05;
    ph.wRegion[unsigned(workload::RegionKind::Stream)] = 0.0;
    ph.wRegion[unsigned(workload::RegionKind::Strided)] = 0.0;
    ph.wRegion[unsigned(workload::RegionKind::Chase)] = 1.0;
    p.phases = {ph};
    ThreadSpec s;
    s.profile = p;
    s.seed = 1;
    return s;
}

/** One thread under the miss-only SOE engine, caches warmed. */
struct SoeSim
{
    SoeSim(const ThreadSpec &spec, bool fast_forward)
        : mc(MachineConfig::benchDefault()), sys(mc, {spec}),
          eng(mc.soe, pol, 1, &sys.stats())
    {
        sys.setFastForward(fast_forward);
        sys.warmCaches(20 * 1000);
        sys.start(&eng);
    }

    /** Step until `instrs` more instructions have retired. */
    void
    run(std::uint64_t instrs)
    {
        const std::uint64_t target = sys.core().retired(0) + instrs;
        while (sys.core().retired(0) < target)
            sys.step(1000);
    }

    MachineConfig mc;
    harness::System sys;
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng;
};

} // namespace

TEST(FastForward, SingleThreadGoldenAcrossSeeds)
{
    for (std::uint64_t seed : {3ull, 9ull}) {
        const std::string on = stGolden("mcf", seed, true);
        const std::string off = stGolden("mcf", seed, false);
        ASSERT_FALSE(on.empty());
        EXPECT_EQ(on, off) << "mcf seed " << seed;
    }
    EXPECT_EQ(stGolden("gcc", 5, true), stGolden("gcc", 5, false));
}

TEST(FastForward, SoeGoldenAllEnforcementLevels)
{
    // The standard evaluation levels F = 0, 1/4, 1/2, 1.
    for (double f : {0.0, 0.25, 0.5, 1.0}) {
        const std::string on = soeGolden("gcc", "art", 7, 11, f, true);
        const std::string off =
            soeGolden("gcc", "art", 7, 11, f, false);
        ASSERT_FALSE(on.empty());
        EXPECT_EQ(on, off) << "enforcement level " << f;
    }
}

TEST(FastForward, SoeGoldenMissBoundPairOtherSeeds)
{
    // Scaled down: the ff-off leg of an mcf pair simulates hundreds
    // of cycles per instruction, which is slow under sanitizers.
    for (double f : {0.0, 1.0}) {
        const std::string on =
            soeGolden("mcf", "eon", 13, 17, f, true, 0.35);
        const std::string off =
            soeGolden("mcf", "eon", 13, 17, f, false, 0.35);
        ASSERT_FALSE(on.empty());
        EXPECT_EQ(on, off) << "enforcement level " << f;
    }
}

TEST(FastForward, EvaluationCsvGolden)
{
    // The Figs. 6-8 path, run in-process: SweepCampaign jobs (payload
    // encoding included) -> aggregate -> writeCampaignCsv.
    auto campaignCsv = [](bool ff) {
        RunConfig rc = smallRun(ff, nullptr);
        rc.warmupInstrs = 30 * 1000;
        rc.measureInstrs = 15 * 1000;
        const harness::SweepCampaign campaign(
            MachineConfig::benchDefault(), rc, {{"gcc", "mcf"}},
            {0.0, 0.5, 1.0});
        std::vector<harness::JobOutcome> outcomes;
        for (const auto &job : campaign.jobs()) {
            harness::JobOutcome o;
            o.id = job.id;
            o.payload = job.run(1);
            o.done = true;
            o.attempts = 1;
            outcomes.push_back(std::move(o));
        }
        const harness::CampaignResult agg = campaign.aggregate(outcomes);
        EXPECT_TRUE(agg.complete());
        std::ostringstream os;
        harness::writeCampaignCsv(os, agg);
        return os.str();
    };
    const std::string on = campaignCsv(true);
    const std::string off = campaignCsv(false);
    ASSERT_NE(on.find("gcc:mcf"), std::string::npos);
    EXPECT_EQ(on, off);
}

TEST(FastForward, EngineActuallySkipsCycles)
{
    // Guard the guard: the golden comparisons above are vacuous if
    // fast-forward never engages on these workloads. On the pointer
    // chase it must also cover nearly every cycle (0.99 today).
    struct Case
    {
        const char *name;
        ThreadSpec spec;
        std::uint64_t cycles;
        double minSkippedFrac;
    };
    const Case cases[] = {
        {"mcf", ThreadSpec::benchmark("mcf", 3), 50 * 1000, 0.0},
        {"pointer chase", pointerChase(), 200 * 1000, 0.95},
    };
    for (const Case &c : cases) {
        for (bool ff : {true, false}) {
            SoeSim sim(c.spec, ff);
            sim.sys.step(c.cycles);
            EXPECT_EQ(sim.sys.fastForwardEnabled(), ff) << c.name;
            if (!ff) {
                EXPECT_EQ(sim.sys.fastForwardJumps(), 0u) << c.name;
                continue;
            }
            EXPECT_GT(sim.sys.fastForwardJumps(), 0u) << c.name;
            EXPECT_GE(double(sim.sys.fastForwardCycles()) /
                          double(sim.sys.now()),
                      c.minSkippedFrac)
                << c.name;
        }
    }
}

TEST(FastForward, PointerChaseRunsAtLeastFiveTimesFaster)
{
    // Run time means something only in an optimized build without
    // audits; the sanitizer and Debug builds turn audits on.
#ifdef NDEBUG
    constexpr bool optimized = !sim::auditsEnabled();
#else
    constexpr bool optimized = false;
#endif
    if (!optimized)
        GTEST_SKIP() << "timed only in optimized builds without audits";

    // CPU time of the whole process: it counts the stream producer's
    // work as well as the simulating thread's, but not the time either
    // waits for a core. With fast-forward on, the simulating thread
    // keeps waking the producer for the next batch of ops, so on a
    // loaded host the short timed run measures the scheduler more
    // than the simulator.
    auto cpuSeconds = [] {
        timespec ts;
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
        return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
    };
    constexpr std::uint64_t instrs = 20 * 1000;
    auto instrsPerSec = [&](bool ff) {
        SoeSim sim(pointerChase(), ff);
        sim.run(instrs / 10); // untimed: keep cold host caches out
        const double t0 = cpuSeconds();
        sim.run(instrs);
        return double(instrs) / (cpuSeconds() - t0);
    };
    // Alternate on and off so load on the host hits both alike.
    std::vector<double> ratios;
    for (int pair = 0; pair < 3; ++pair) {
        const double on = instrsPerSec(true);
        ratios.push_back(on / instrsPerSec(false));
    }
    std::sort(ratios.begin(), ratios.end());
    std::cout << "pointer chase, fast-forward on/off instrs/s: "
              << ratios[0] << "x " << ratios[1] << "x " << ratios[2]
              << "x\n";
    EXPECT_GE(ratios[1], 5.0) << "median on/off ratio";
}

TEST(FastForward, EnvironmentToggle)
{
    ::setenv("SOEFAIR_FASTFORWARD", "0", 1);
    EXPECT_FALSE(RunConfig::fromEnv().fastForward);
    ::setenv("SOEFAIR_FASTFORWARD", "off", 1);
    EXPECT_FALSE(RunConfig::fromEnv().fastForward);
    ::setenv("SOEFAIR_FASTFORWARD", "1", 1);
    EXPECT_TRUE(RunConfig::fromEnv().fastForward);
    ::unsetenv("SOEFAIR_FASTFORWARD");
    EXPECT_TRUE(RunConfig::fromEnv().fastForward);
}
