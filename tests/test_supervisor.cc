/**
 * @file
 * Sweep supervisor tests: crash isolation (a job may hang, die on a
 * signal or throw any SimError without taking down the campaign),
 * one attempt per job and run, journal write-ahead/replay, resume
 * as the next attempt at the job's own seed, one writer per journal,
 * and the golden guarantee that a supervised campaign reproduces the
 * campaign run in-process (tests/in_process_campaign.hh) byte for byte.
 * The SweepCampaign tests that install an attempt hook are the sweep
 * fault matrix (docs/robustness.md, "Fault hooks").
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "harness/journal.hh"
#include "harness/machine_config.hh"
#include "harness/supervisor.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "in_process_campaign.hh"
#include "sim/errors.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "workload/inst_stream.hh"
#include "workload/profile.hh"

using namespace soefair;
using namespace soefair::harness;

#if defined(__SANITIZE_ADDRESS__)
/**
 * ASan's defaults for this test binary; ASAN_OPTIONS, when set,
 * still overrides them. ASan's SIGSEGV handler exits 1 unless
 * abort_on_error is set, so a job that dies on a signal would read
 * as a "fatal" exit instead of "signal"
 * (Supervisor.SignalDeathIsRecordedAsFailedAfterOneAttempt).
 */
extern "C" const char *
__asan_default_options()
{
    return "abort_on_error=1";
}
#endif

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

/**
 * Build a one-thread System on gcc whose second phase, entered after
 * 2000 ops, has an invalid geometric parameter, and run it: its
 * generator panics on the producer thread, mid-stream.
 */
std::string
runStreamThatPanics()
{
    workload::Profile prof = workload::spec::byName("gcc");
    workload::Phase bad = prof.phases[0];
    bad.depGeoP = 0.0;
    prof.phases.resize(1);
    prof.phases[0].duration = 2000;
    prof.phases.push_back(bad);

    const MachineConfig mc = MachineConfig::benchDefault();
    System sys(mc, {ThreadSpec{prof, 1}});
    soe::MissOnlyPolicy pol;
    soe::SoeEngine eng(mc.soe, pol, 1, &sys.stats());
    sys.start(&eng);
    for (int i = 0; i < 1000; ++i)
        sys.step(1000);
    return "ran past the panic";
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

TEST(Supervisor, GeneratorPanicOnTheProducerIsClassifiedPanic)
{
    // The producer's panic reaches System::step on the simulating
    // thread, so a supervised job keeps its class exit code (3).
    EXPECT_THROW(runStreamThatPanics(), PanicError);
    EXPECT_EQ(workload::InstStream::liveProducers(), 0u);

    SweepSupervisor sup(quickConfig());
    auto outcomes = sup.run(
        {job("producer-panic",
             [](unsigned) { return runStreamThatPanics(); })},
        nullptr);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_FALSE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].failClass, "panic");
}

TEST(Supervisor, FailedJobResumesAsTheNextAttempt)
{
    // A failed job is not retried within the run; resuming its
    // journal runs it again as attempt 2.
    TempJournal tj("next_attempt");
    const auto flaky = job("flaky", [](unsigned attempt) -> std::string {
        if (attempt < 2)
            raiseError<WatchdogTimeout>("injected livelock");
        return "recovered@" + std::to_string(attempt);
    });
    {
        JournalWriter w;
        w.create(tj.path, "key");
        SweepSupervisor sup(quickConfig());
        auto outcomes = sup.run({flaky}, &w);
        w.close();
        EXPECT_FALSE(outcomes[0].done);
        EXPECT_EQ(outcomes[0].failClass, "watchdog");
        EXPECT_EQ(outcomes[0].attempts, 1u);
    }

    auto st = loadJournal(tj.path, "key", false);
    EXPECT_EQ(st.failed.at("flaky").attempt, 1u);
    EXPECT_EQ(st.attempts.at("flaky"), 1u);

    JournalWriter w;
    w.openAppend(tj.path);
    SweepSupervisor sup(quickConfig());
    auto outcomes = sup.run({flaky}, &w, &st);
    w.close();
    EXPECT_TRUE(outcomes[0].done);
    EXPECT_FALSE(outcomes[0].fromJournal);
    EXPECT_EQ(outcomes[0].attempts, 2u);
    EXPECT_EQ(outcomes[0].payload, "recovered@2");
    EXPECT_EQ(loadJournal(tj.path, "key", false).done.at("flaky").attempt,
              2u);
}

TEST(Supervisor, SignalDeathIsRecordedAsFailedAfterOneAttempt)
{
    SweepSupervisor sup(quickConfig());
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
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_TRUE(outcomes[1].done);
}

TEST(Supervisor, HangingJobIsKilledAtTheDeadline)
{
    auto cfg = quickConfig();
    cfg.deadlineSeconds = 0.25;
    SweepSupervisor sup(cfg);
    auto outcomes = sup.run(
        {job("hung",
             [](unsigned) -> std::string { sleepForever(); }),
         job("alive", [](unsigned) { return "ok"; })},
        nullptr);
    EXPECT_FALSE(outcomes[0].done);
    EXPECT_EQ(outcomes[0].failClass, "deadline");
    EXPECT_EQ(outcomes[0].attempts, 1u);
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

/** The fault scenarios' campaign: gcc:eon at F = 1/2 and 1. (At
 *  F = 0, eon runs alone for most of the cell, which makes it the
 *  slowest cell of the pair.) */
const std::vector<double> faultLevels = {0.5, 1.0};

std::string
faultReferenceCsv()
{
    return test::campaignCsv(test::runCampaignInProcess(
        MachineConfig::benchDefault(), tinyRun(), {{"gcc", "eon"}},
        faultLevels));
}

/** Contents of the file at `path`. */
std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), {}};
}

/** A hook that fails every job except `allowed`, so a resume shows
 *  which jobs it re-ran: any other one becomes a MISSING cell. */
std::function<void(const std::string &, unsigned)>
onlyRerun(std::set<std::string> allowed)
{
    return [allowed = std::move(allowed)](const std::string &id,
                                          unsigned) {
        if (!allowed.count(id))
            raiseError<InputError>("re-ran finished job '", id, "'");
    };
}

} // namespace

TEST(SweepCampaign, MatchesInProcessSweepByteForByte)
{
    const std::vector<double> levels = {0.0, 0.5};
    const auto mc = MachineConfig::benchDefault();

    // In-process reference: the same jobs, unforked and unjournaled.
    const std::string refCsv = test::campaignCsv(test::runCampaignInProcess(
        mc, tinyRun(), {{"gcc", "eon"}}, levels));

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

        EXPECT_EQ(refCsv, supCsv.str());

        // And a resume over the finished journal replays everything
        // without re-running, still byte-identical.
        auto agg2 = campaign.run(cfg, tj.path, /*resume=*/true);
        std::ostringstream resCsv;
        writeCampaignCsv(resCsv, agg2);
        EXPECT_EQ(refCsv, resCsv.str());
    }
}

TEST(SweepCampaign, StandardCampaignDecomposesIntoItsJobIds)
{
    const auto pairs = workload::spec::evaluationPairs();
    const auto levels = EvaluationSweep::standardLevels();
    ASSERT_EQ(pairs.size(), 16u);
    ASSERT_EQ(levels.size(), 4u);
    const SweepCampaign campaign(MachineConfig::benchDefault(),
                                 tinyRun(), pairs, levels);
    const auto jobs = campaign.jobs();
    ASSERT_EQ(jobs.size(), 87u);

    // The 23 unique single-thread baselines come first ...
    constexpr std::size_t stJobs = 23;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].id.rfind(i < stJobs ? "st:" : "soe:", 0), 0u)
            << "job " << i << " is " << jobs[i].id;
    }
    // ... then one job per pair x level, in that order.
    std::size_t i = stJobs;
    for (const auto &[a, b] : pairs) {
        for (double f : levels)
            EXPECT_EQ(jobs[i++].id, SweepCampaign::soeJobId(a, b, f));
    }

    std::set<std::string> ids;
    for (const auto &j : jobs)
        ids.insert(j.id);
    EXPECT_EQ(ids.size(), jobs.size()); // no id repeats
    EXPECT_EQ(ids, campaign.jobIds());
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

TEST(SweepCampaign, KilledBaselineIsMissingAndResumesAtItsOwnSeed)
{
    const std::vector<double> levels = {0.0};
    const auto mc = MachineConfig::benchDefault();
    const std::string refCsv = test::campaignCsv(test::runCampaignInProcess(
        mc, tinyRun(), {{"gcc", "eon"}}, levels));

    // SIGKILL gcc's baseline on its first attempt only. The run
    // must not re-run it (at any seed): the cell and the SOE cell
    // that needs it are visible gaps.
    SweepCampaign campaign(mc, tinyRun(), {{"gcc", "eon"}}, levels);
    const std::string killed =
        SweepCampaign::stJobId("gcc", pairSeed(0));
    campaign.setAttemptHook(
        [killed](const std::string &id, unsigned attempt) {
            if (id == killed && attempt == 1)
                raise(SIGKILL);
        });

    TempJournal tj("killed_baseline");
    auto agg = campaign.run(quickConfig(), tj.path, /*resume=*/false);
    std::ostringstream csv;
    writeCampaignCsv(csv, agg);
    EXPECT_NE(csv.str().find(
                  "MISSING(gcc:eon,ST:gcc,signal after 1 attempt(s))"),
              std::string::npos)
        << csv.str();
    EXPECT_NE(csv.str().find("MISSING(gcc:eon,F=0,baseline missing)"),
              std::string::npos)
        << csv.str();

    // Resuming with the same hook runs the baseline as attempt 2 at
    // its own seed: the CSV is the in-process campaign's, byte for byte.
    auto agg2 = campaign.run(quickConfig(), tj.path, /*resume=*/true);
    EXPECT_TRUE(agg2.complete());
    std::ostringstream resCsv;
    writeCampaignCsv(resCsv, agg2);
    EXPECT_EQ(refCsv, resCsv.str());
}

TEST(SweepCampaign, ConcurrentRunsOnOneJournalTakeTurns)
{
    const std::vector<double> levels = {0.0, 0.5};
    const auto mc = MachineConfig::benchDefault();
    const std::string refCsv = test::campaignCsv(test::runCampaignInProcess(
        mc, tinyRun(), {{"gcc", "eon"}}, levels));

    TempJournal tj("shared");
    TempJournal childOut("shared_child_csv");
    int started[2];
    ASSERT_EQ(pipe(started), 0);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: the first campaign on the journal. Its job children
        // report each attempt through the pipe, so the parent knows
        // the journal is locked and written before it starts.
        ::close(started[0]);
        int code = 1;
        try {
            SweepCampaign campaign(mc, tinyRun(), {{"gcc", "eon"}},
                                   levels);
            campaign.setAttemptHook(
                [fd = started[1]](const std::string &, unsigned) {
                    const char byte = 1;
                    (void)!::write(fd, &byte, 1);
                });
            auto agg = campaign.run(quickConfig(), tj.path,
                                    /*resume=*/false);
            std::ofstream os(childOut.path);
            writeCampaignCsv(os, agg);
            code = agg.complete() && os ? 0 : 1;
        } catch (...) {
        }
        _exit(code);
    }
    ::close(started[1]);
    char byte = 0;
    ASSERT_EQ(::read(started[0], &byte, 1), 1);

    // The same campaign in the parent, resuming the shared journal:
    // it waits for the child's lock, then replays every cell.
    SweepCampaign campaign(mc, tinyRun(), {{"gcc", "eon"}}, levels);
    auto agg = campaign.run(quickConfig(), tj.path, /*resume=*/true);
    std::ostringstream parentCsv;
    writeCampaignCsv(parentCsv, agg);

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    // Closed only now: the child's later attempts still write to it.
    ::close(started[0]);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    const std::string childCsv = readFile(childOut.path);
    EXPECT_EQ(refCsv, childCsv);
    EXPECT_EQ(refCsv, parentCsv.str());

    // Strict loading rejects a duplicate `done`; every job ran once
    // (header plus one running and one done record per job).
    const auto ids = campaign.jobIds();
    const auto st =
        loadJournal(tj.path, campaign.journalKey(), false, &ids);
    EXPECT_EQ(st.done.size(), ids.size());
    const std::string text = readFile(tj.path);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
              std::ptrdiff_t(1 + 2 * ids.size()));
}

TEST(SweepCampaign, HungJobIsMissingAtTheDeadlineAndResumes)
{
    // A job that blocks forever is killed at the deadline; the
    // campaign finishes the other cells and reports a partial result.
    // The slowest healthy job here, F = 1/2, takes 0.5 s under the
    // asan preset (0.12 s in release) on a 4-CPU x86_64 VM, so a 4 s
    // deadline kills only the hang.
    SweepCampaign campaign(MachineConfig::benchDefault(), tinyRun(),
                           {{"gcc", "eon"}}, faultLevels);
    campaign.setAttemptHook([](const std::string &id, unsigned attempt) {
        if (id == "soe:gcc:eon:F=0.5" && attempt == 1)
            sleepForever();
    });
    TempJournal tj("hang");
    auto cfg = quickConfig();
    cfg.deadlineSeconds = 4.0;
    const auto agg = campaign.run(cfg, tj.path, /*resume=*/false);
    EXPECT_EQ(agg.exitCode(), exitCampaignPartial);
    const std::string csv = test::campaignCsv(agg);
    EXPECT_NE(csv.find("MISSING(gcc:eon,F=0.5,deadline"),
              std::string::npos)
        << csv;

    // A resume without the hook re-runs the hung cell only.
    campaign.setAttemptHook(onlyRerun({"soe:gcc:eon:F=0.5"}));
    const auto resumed =
        campaign.run(quickConfig(), tj.path, /*resume=*/true);
    EXPECT_EQ(resumed.exitCode(), 0);
    EXPECT_EQ(test::campaignCsv(resumed), faultReferenceCsv());
}

TEST(SweepCampaign, TornJournalTailRerunsOnlyTheTornJob)
{
    // A kill mid-append leaves the final record torn. A resume drops
    // it and re-runs that job, and only that job.
    SweepCampaign campaign(MachineConfig::benchDefault(), tinyRun(),
                           {{"gcc", "eon"}}, faultLevels);
    TempJournal tj("torn");
    ASSERT_TRUE(
        campaign.run(quickConfig(), tj.path, /*resume=*/false)
            .complete());

    const std::string text = readFile(tj.path);
    const std::size_t lastLine = text.rfind('\n', text.size() - 2) + 1;
    const std::size_t idAt = text.find("\"job\":\"", lastLine) + 7;
    const std::string torn =
        text.substr(idAt, text.find('"', idAt) - idAt);
    ASSERT_NE(text.find("\"state\":\"done\"", lastLine),
              std::string::npos);
    std::filesystem::resize_file(tj.path, text.size() - 9);

    campaign.setAttemptHook(onlyRerun({torn}));
    const auto resumed =
        campaign.run(quickConfig(), tj.path, /*resume=*/true);
    EXPECT_TRUE(resumed.complete()) << test::campaignCsv(resumed);
    EXPECT_EQ(test::campaignCsv(resumed), faultReferenceCsv());
}

TEST(SweepCampaign, KilledSupervisorResumesFromItsJournal)
{
    // The supervisor dies of SIGKILL while its second job runs. The
    // job's hook kills the supervisor and then itself, so no process
    // of the campaign outlives it, and nothing has to be polled.
    TempJournal tj("killed_supervisor");
    std::string firstJob;
    {
        SweepCampaign campaign(MachineConfig::benchDefault(), tinyRun(),
                               {{"gcc", "eon"}}, faultLevels);
        const auto jobList = campaign.jobs();
        ASSERT_GE(jobList.size(), 2u);
        firstJob = jobList[0].id;
        campaign.setAttemptHook(
            [second = jobList[1].id](const std::string &id, unsigned) {
                if (id == second) {
                    ::kill(::getppid(), SIGKILL);
                    ::raise(SIGKILL);
                }
            });

        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            try {
                auto cfg = quickConfig();
                cfg.jobSlots = 1;
                campaign.run(cfg, tj.path, /*resume=*/false);
            } catch (...) {
            }
            // Reached only when the hook did not fire.
                _exit(1);
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status)) << "status " << status;
        EXPECT_EQ(WTERMSIG(status), SIGKILL);
    }

    // The first job's `done` record is replayed; every other job
    // runs again.
    SweepCampaign campaign(MachineConfig::benchDefault(), tinyRun(),
                           {{"gcc", "eon"}}, faultLevels);
    std::set<std::string> rest = campaign.jobIds();
    rest.erase(firstJob);
    campaign.setAttemptHook(onlyRerun(rest));
    const auto resumed =
        campaign.run(quickConfig(), tj.path, /*resume=*/true);
    EXPECT_TRUE(resumed.complete()) << test::campaignCsv(resumed);
    EXPECT_EQ(test::campaignCsv(resumed), faultReferenceCsv());
}

TEST(SweepCampaign, ForeignJournalIsRefusedUntouched)
{
    // A journal of the {0, 1/2} campaign (every job failed at once,
    // which is enough for its header) cannot be resumed by the {0}
    // campaign, and the refusal leaves its bytes as they were.
    TempJournal tj("foreign");
    {
        SweepCampaign campaign(MachineConfig::benchDefault(), tinyRun(),
                               {{"gcc", "eon"}}, {0.0, 0.5});
        campaign.setAttemptHook(onlyRerun({}));
        campaign.run(quickConfig(), tj.path, /*resume=*/false);
    }
    const std::string before = readFile(tj.path);
    ASSERT_FALSE(before.empty());

    SweepCampaign other(MachineConfig::benchDefault(), tinyRun(),
                        {{"gcc", "eon"}}, {0.0});
    EXPECT_THROW(other.run(quickConfig(), tj.path, /*resume=*/true),
                 CheckpointError);
    EXPECT_EQ(readFile(tj.path), before);
}
