/**
 * @file
 * Crash-isolated sweep supervisor.
 *
 * A campaign is a list of independent jobs. Each job runs in a
 * forked child process under a wall-clock deadline (SIGKILL on
 * expiry), so a crash, sanitizer abort, hang or OOM in one job can
 * never take down the campaign. The child's exit status is
 * classified against the SimError taxonomy, and a job that fails is
 * recorded as failed with that class. A job gets one attempt per
 * run: the simulator is deterministic, so running it again at the
 * same seed reproduces a typed failure, and running it at another
 * seed would compare a different instruction stream against the
 * campaign's baselines. A failed job is re-run only by resuming the
 * journal, at its own seed, as the next attempt number.
 *
 * Every transition is committed to a write-ahead JSONL journal
 * (see journal.hh) before the supervisor acts on it; resuming from
 * the journal replays `done` payloads without re-running the jobs.
 */

#ifndef SOEFAIR_HARNESS_SUPERVISOR_HH
#define SOEFAIR_HARNESS_SUPERVISOR_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/journal.hh"

namespace soefair
{
namespace harness
{

/** Campaign-level process exit codes (`soefair_cli sweep`). */
constexpr int exitCampaignPartial = 20; ///< some cells missing
constexpr int exitCampaignFailed = 21;  ///< no pair has a result row

/** One unit of isolated work. */
struct SupervisorJob
{
    std::string id;
    /**
     * Job body, executed in the forked child. Returns the result
     * payload recorded in the journal. `attempt` is 1-based and
     * counts the job's runs across resumes of one journal. Throwing
     * a SimError exits the child with that class's exit code.
     */
    std::function<std::string(unsigned attempt)> run;
};

struct SupervisorConfig
{
    /** Wall-clock deadline per attempt; expired children get
     *  SIGKILL. <= 0 disables the deadline. */
    double deadlineSeconds = 600.0;
    /** Concurrent forked children (the `--jobs N` slots). */
    unsigned jobSlots = 1;
    /** Optional stream for per-job progress lines. */
    std::ostream *progress = nullptr;
};

/** Final state of one job after supervision. */
struct JobOutcome
{
    std::string id;
    bool done = false;
    /** True when the result was replayed from the journal. */
    bool fromJournal = false;
    std::string payload;
    /** Failure class when !done: "input", "estimator", "watchdog",
     *  "checkpoint", "fatal", "usage", "panic", "signal",
     *  "deadline", "fork" or "exit". */
    std::string failClass;
    std::string detail;
    unsigned attempts = 0;
};

class SweepSupervisor
{
  public:
    explicit SweepSupervisor(const SupervisorConfig &config)
        : cfg(config)
    {}

    /**
     * Run every job to a final state; never throws because of a
     * job's behaviour. @param journal Optional write-ahead journal
     * (may be null in tests). @param prior Journal state from a
     * previous campaign: its `done` jobs are skipped and replayed,
     * and every other job runs as the attempt after the last one it
     * recorded. Outcomes are returned in the jobs' order.
     */
    std::vector<JobOutcome> run(const std::vector<SupervisorJob> &jobs,
                                JournalWriter *journal,
                                const JournalState *prior = nullptr);

    /**
     * Classify a raw waitpid(2) status (plus whether the supervisor
     * killed the child for its deadline) into a failure class, or
     * "" for success. Exposed for tests.
     */
    static std::string classifyStatus(int status, bool deadline_kill);

  private:
    SupervisorConfig cfg;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SUPERVISOR_HH
