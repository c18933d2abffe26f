/**
 * @file
 * Sweep supervisor tests: crash isolation (a job may hang, die on a
 * signal or throw any SimError without taking down the campaign),
 * permanent-vs-transient classification, retry with attempt-derived
 * reseeding, journal write-ahead/replay, and the golden guarantee
 * that a supervised campaign reproduces the in-process sweep's CSV
 * byte for byte.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "harness/journal.hh"
#include "harness/machine_config.hh"
#include "harness/supervisor.hh"
#include "harness/sweep.hh"
#include "sim/errors.hh"
#include "sim/random.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

struct TempJournal
{
    explicit TempJournal(const char *name)
        : path(std::string("/tmp/soefair_sup_") + name + ".jsonl")
    {
        std::remove(path.c_str());
    }
    ~TempJournal() { std::remove(path.c_str()); }
    std::string path;
};

SupervisorConfig
quickConfig()
{
    SupervisorConfig cfg;
    cfg.deadlineSeconds = 30.0;
    cfg.maxAttempts = 3;
    cfg.backoffBaseSeconds = 0.01;
    return cfg;
}

/** Runs in the forked child: block forever without busy-burning. */
[[noreturn]] void
sleepForever()
{
    struct timespec ts = {1, 0};
    for (;;)
        nanosleep(&ts, nullptr);
}

SupervisorJob
job(const std::string &id,
    std::function<std::string(unsigned)> body)
{
    SupervisorJob j;
    j.id = id;
    j.run = std::move(body);
    return j;
}

} // namespace

TEST(Supervisor, AllJobsSucceed)
{
    SweepSupervisor sup(quickConfig());
    auto outcomes = sup.run(
        {job("a", [](unsigned) { return "pa"; }),
         job("b", [](unsigned) { return "pb"; })},
        nullptr);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].payload, "pa");
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_TRUE(outcomes[1].done);
    EXPECT_EQ(outcomes[1].payload, "pb");
}

TEST(Supervisor, PermanentInputErrorFailsFastWithoutRetry)
{
    SweepSupervisor sup(quickConfig());
    auto outcomes = sup.run(
        {job("bad",
             [](unsigned) -> std::string {
                 raiseError<InputError>("injected");
             }),
         job("good", [](unsigned) { return "ok"; })},
        nullptr);
    EXPECT_FALSE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].failClass, "input");
    EXPECT_EQ(outcomes[0].attempts, 1u);
    // The campaign continued past the failure.
    EXPECT_TRUE(outcomes[1].done);
}

TEST(Supervisor, TransientFailureRetriesThenSucceeds)
{
    SweepSupervisor sup(quickConfig());
    auto outcomes = sup.run(
        {job("flaky", [](unsigned attempt) -> std::string {
            if (attempt < 2)
                raiseError<WatchdogTimeout>("injected livelock");
            return "recovered@" + std::to_string(attempt);
        })},
        nullptr);
    EXPECT_TRUE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(outcomes[0].payload, "recovered@2");
}

TEST(Supervisor, SignalDeathIsRetriedThenRecordedAsFailed)
{
    auto cfg = quickConfig();
    cfg.maxAttempts = 2;
    SweepSupervisor sup(cfg);
    auto outcomes = sup.run(
        {job("crasher",
             [](unsigned) -> std::string {
                 raise(SIGSEGV);
                 return "unreachable";
             }),
         job("survivor", [](unsigned) { return "ok"; })},
        nullptr);
    EXPECT_FALSE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].failClass, "signal");
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_TRUE(outcomes[1].done);
}

TEST(Supervisor, HangingJobIsKilledAtTheDeadline)
{
    auto cfg = quickConfig();
    cfg.deadlineSeconds = 0.25;
    cfg.maxAttempts = 2;
    SweepSupervisor sup(cfg);
    auto outcomes = sup.run(
        {job("hung",
             [](unsigned) -> std::string { sleepForever(); }),
         job("alive", [](unsigned) { return "ok"; })},
        nullptr);
    EXPECT_FALSE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].failClass, "deadline");
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_TRUE(outcomes[1].done);
}

TEST(Supervisor, ParallelSlotsCompleteEveryJob)
{
    auto cfg = quickConfig();
    cfg.jobSlots = 3;
    SweepSupervisor sup(cfg);
    std::vector<SupervisorJob> jobs;
    for (int i = 0; i < 7; ++i) {
        jobs.push_back(job("j" + std::to_string(i),
                           [i](unsigned) {
                               return "p" + std::to_string(i);
                           }));
    }
    auto outcomes = sup.run(jobs, nullptr);
    ASSERT_EQ(outcomes.size(), 7u);
    for (int i = 0; i < 7; ++i) {
        EXPECT_TRUE(outcomes[i].done);
        EXPECT_EQ(outcomes[i].payload, "p" + std::to_string(i));
    }
}

TEST(Supervisor, JournalCommitsTransitionsAndResumeReplays)
{
    TempJournal tj("resume");
    {
        JournalWriter w;
        w.create(tj.path, "key");
        SweepSupervisor sup(quickConfig());
        auto outcomes = sup.run(
            {job("done1", [](unsigned) { return "payload1"; }),
             job("perm",
                 [](unsigned) -> std::string {
                     raiseError<InputError>("bad input");
                 })},
            &w);
        w.close();
        EXPECT_TRUE(outcomes[0].done);
        EXPECT_FALSE(outcomes[1].done);
    }

    auto st = loadJournal(tj.path, "key", false);
    EXPECT_EQ(st.done.at("done1").payload, "payload1");
    EXPECT_EQ(st.failed.at("perm").errClass, "input");

    // Resume: the done job must be replayed without running its
    // body (the body would fail the test by succeeding with a
    // different payload); the failed job is re-run fresh.
    JournalWriter w;
    w.openAppend(tj.path);
    SweepSupervisor sup(quickConfig());
    auto outcomes = sup.run(
        {job("done1", [](unsigned) { return "DIFFERENT"; }),
         job("perm", [](unsigned) { return "fixed"; })},
        &w, &st);
    w.close();
    EXPECT_TRUE(outcomes[0].done);
    EXPECT_TRUE(outcomes[0].fromJournal);
    EXPECT_EQ(outcomes[0].payload, "payload1");
    EXPECT_TRUE(outcomes[1].done);
    EXPECT_FALSE(outcomes[1].fromJournal);
    EXPECT_EQ(outcomes[1].payload, "fixed");

    auto st2 = loadJournal(tj.path, "key", false);
    EXPECT_EQ(st2.done.at("perm").payload, "fixed");
}

TEST(Supervisor, BackoffScheduleIsPinned)
{
    // The exponential backoff schedule is shared between the
    // in-process supervisor and the sweep service's queue retries:
    // base * 2^(k-1) seconds after transient failure k. Pinned so a
    // change is a conscious decision, not an accident.
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffSeconds(0.25, 0), 0.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffSeconds(0.25, 1), 0.25);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffSeconds(0.25, 2), 0.5);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffSeconds(0.25, 3), 1.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffSeconds(0.25, 4), 2.0);
    EXPECT_DOUBLE_EQ(SweepSupervisor::backoffSeconds(1.0, 3), 4.0);
    // Huge attempt counts saturate instead of overflowing.
    EXPECT_GT(SweepSupervisor::backoffSeconds(1.0, 200), 0.0);
}

TEST(Supervisor, AttemptSeedReseedingIsPinned)
{
    // Jittered reseeding is part of the resume/replay determinism
    // contract: attempt 1 runs the base seed, attempt k >= 2 runs
    // deriveSeed(seed, 1000 + k). Cached and journaled results are
    // only substitutable for re-simulation because this schedule
    // never changes.
    const std::uint64_t seed = 12345;
    EXPECT_EQ(attemptSeed(seed, 1), seed);
    EXPECT_EQ(attemptSeed(seed, 2), deriveSeed(seed, 1002));
    EXPECT_EQ(attemptSeed(seed, 3), deriveSeed(seed, 1003));
    EXPECT_EQ(attemptSeed(seed, 7), deriveSeed(seed, 1007));
    // Distinct attempts must get distinct streams.
    EXPECT_NE(attemptSeed(seed, 2), seed);
    EXPECT_NE(attemptSeed(seed, 2), attemptSeed(seed, 3));
}

TEST(Supervisor, TransientClassification)
{
    EXPECT_TRUE(SweepSupervisor::isTransient("watchdog"));
    EXPECT_TRUE(SweepSupervisor::isTransient("estimator"));
    EXPECT_TRUE(SweepSupervisor::isTransient("signal"));
    EXPECT_TRUE(SweepSupervisor::isTransient("deadline"));
    EXPECT_TRUE(SweepSupervisor::isTransient("panic"));
    EXPECT_FALSE(SweepSupervisor::isTransient("input"));
    EXPECT_FALSE(SweepSupervisor::isTransient("checkpoint"));
    EXPECT_FALSE(SweepSupervisor::isTransient("fatal"));
    EXPECT_FALSE(SweepSupervisor::isTransient("usage"));
}

namespace
{

RunConfig
tinyRun()
{
    RunConfig rc;
    rc.warmupInstrs = 20 * 1000;
    rc.timingWarmInstrs = 5 * 1000;
    rc.measureInstrs = 20 * 1000;
    return rc;
}

} // namespace

TEST(SweepCampaign, MatchesInProcessSweepByteForByte)
{
    const std::vector<double> levels = {0.0, 0.5};
    const auto mc = MachineConfig::benchDefault();

    // In-process reference (the pre-supervisor sweep path).
    EvaluationSweep sweep(mc, tinyRun());
    std::vector<PairResult> ref = {
        sweep.runPair("gcc", "eon", levels)};
    std::ostringstream refCsv;
    writePairResultsCsv(refCsv, ref);

    // Supervised campaign over the same cells, with one forked job
    // slot and with two (concurrent children finish out of order;
    // the CSV must not depend on it).
    for (unsigned slots : {1u, 2u}) {
        SCOPED_TRACE("slots=" + std::to_string(slots));
        TempJournal tj(slots == 1 ? "golden" : "golden2");
        SweepCampaign campaign(mc, tinyRun(), {{"gcc", "eon"}},
                               levels);
        auto cfg = quickConfig();
        cfg.jobSlots = slots;
        auto agg = campaign.run(cfg, tj.path, /*resume=*/false);
        ASSERT_TRUE(agg.complete());
        std::ostringstream supCsv;
        writeCampaignCsv(supCsv, agg);

        EXPECT_EQ(refCsv.str(), supCsv.str());

        // And a resume over the finished journal replays everything
        // without re-running, still byte-identical.
        auto agg2 = campaign.run(cfg, tj.path, /*resume=*/true);
        std::ostringstream resCsv;
        writeCampaignCsv(resCsv, agg2);
        EXPECT_EQ(refCsv.str(), resCsv.str());
    }
}

TEST(SweepCampaign, MissingCellsAreExplicitAndExitCodesDistinct)
{
    const std::vector<double> levels = {0.0};
    const auto mc = MachineConfig::benchDefault();
    SweepCampaign campaign(mc, tinyRun(), {{"gcc", "eon"}}, levels);
    // Fail the SOE job permanently on every attempt; baselines run.
    campaign.setAttemptHook(
        [](const std::string &id, unsigned) {
            if (id.rfind("soe:", 0) == 0)
                raiseError<InputError>("injected");
        });

    TempJournal tj("partial");
    auto agg =
        campaign.run(quickConfig(), tj.path, /*resume=*/false);
    EXPECT_FALSE(agg.complete());
    EXPECT_TRUE(agg.results.empty());
    ASSERT_EQ(agg.missing.size(), 1u);
    EXPECT_EQ(agg.missing[0].pair, "gcc:eon");
    EXPECT_EQ(agg.missing[0].what, "F=0");
    EXPECT_EQ(agg.missing[0].reason, "input after 1 attempt(s)");
    EXPECT_EQ(agg.exitCode(), exitCampaignFailed);

    std::ostringstream csv;
    writeCampaignCsv(csv, agg);
    EXPECT_NE(csv.str().find(
                  "MISSING(gcc:eon,F=0,input after 1 attempt(s))"),
              std::string::npos);

    // Resuming without the injected fault completes the campaign:
    // the baselines are replayed from the journal, the SOE cell is
    // re-run, and the exit code returns to success.
    campaign.setAttemptHook(nullptr);
    auto agg2 =
        campaign.run(quickConfig(), tj.path, /*resume=*/true);
    EXPECT_TRUE(agg2.complete());
    EXPECT_EQ(agg2.exitCode(), 0);
    ASSERT_EQ(agg2.results.size(), 1u);
}
