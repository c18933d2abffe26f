/**
 * @file
 * Crash-isolated sweep supervisor.
 *
 * A campaign is a list of independent jobs. Each job attempt runs in
 * a forked child process under a wall-clock deadline (SIGKILL on
 * expiry), so a crash, sanitizer abort, hang or OOM in one job can
 * never take down the campaign. The child's exit status is
 * classified against the SimError taxonomy:
 *
 *  - permanent (InputError 10, CheckpointError 13, untyped fatal 1,
 *    usage 2): the job is recorded as failed immediately — retrying
 *    deterministic bad input cannot help;
 *  - transient (EstimatorError 11, WatchdogTimeout 12, internal
 *    panic 3, death by any signal, deadline kill): the job is
 *    retried with exponential backoff, up to
 *    SupervisorConfig::maxAttempts. Retries pass a fresh 1-based
 *    attempt number to the job body so it can reseed itself
 *    ("jittered reseeding": a deterministic livelock at seed S may
 *    complete at a derived seed).
 *
 * Every transition is committed to a write-ahead JSONL journal
 * (see journal.hh) before the supervisor acts on it; resuming from
 * the journal replays `done` payloads without re-running the jobs.
 */

// detlint: conc-optin — supervisor state is owned by the one parent
// process that forks the job children; the ownership-domain tags
// keep any later sharing an annotation change the compiler checks
// (CONC-001).

#ifndef SOEFAIR_HARNESS_SUPERVISOR_HH
#define SOEFAIR_HARNESS_SUPERVISOR_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/journal.hh"
#include "sim/annotations.hh"

namespace soefair
{
namespace harness
{

/** Campaign-level process exit codes (`soefair_cli sweep`). */
constexpr int exitCampaignPartial = 20; ///< some cells missing
constexpr int exitCampaignFailed = 21;  ///< no cell completed

/** One unit of isolated work. */
struct SupervisorJob
{
    std::string id SOE_THREAD_OWNED(supervisor);
    /**
     * Job body, executed in the forked child. Returns the result
     * payload recorded in the journal. `attempt` is 1-based; retried
     * attempts may use it to derive a jittered seed. Throwing a
     * SimError exits the child with that class's exit code.
     */
    std::function<std::string(unsigned attempt)>
        run SOE_THREAD_OWNED(supervisor);
};

struct SupervisorConfig
{
    /** Wall-clock deadline per attempt; expired children get
     *  SIGKILL. <= 0 disables the deadline. */
    double deadlineSeconds SOE_THREAD_OWNED(supervisor) = 600.0;
    /** Max attempts per job with a transient failure (>= 1). */
    unsigned maxAttempts SOE_THREAD_OWNED(supervisor) = 3;
    /** Backoff before retry k is base * 2^(k-2) seconds. */
    double backoffBaseSeconds SOE_THREAD_OWNED(supervisor) = 0.25;
    /** Concurrent forked children (the `--jobs N` slots). */
    unsigned jobSlots SOE_THREAD_OWNED(supervisor) = 1;
    /** Optional stream for per-job progress lines. */
    std::ostream *progress SOE_THREAD_OWNED(supervisor) = nullptr;
};

/** Final state of one job after supervision. */
struct JobOutcome
{
    std::string id SOE_THREAD_OWNED(supervisor);
    bool done SOE_THREAD_OWNED(supervisor) = false;
    /** True when the result was replayed from the journal. */
    bool fromJournal SOE_THREAD_OWNED(supervisor) = false;
    std::string payload SOE_THREAD_OWNED(supervisor);
    /** Failure class when !done: "input", "estimator", "watchdog",
     *  "checkpoint", "fatal", "usage", "panic", "signal",
     *  "deadline" or "exit". */
    std::string failClass SOE_THREAD_OWNED(supervisor);
    std::string detail SOE_THREAD_OWNED(supervisor);
    unsigned attempts SOE_THREAD_OWNED(supervisor) = 0;
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
     * previous campaign: its `done` jobs are skipped and replayed.
     * Outcomes are returned in the jobs' order.
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

    /** Whether a failure class is worth retrying. */
    static bool isTransient(const std::string &fail_class);

    /**
     * Backoff before the retry that follows transient failure number
     * `failed_attempt` (1-based): base * 2^(failed_attempt - 1)
     * seconds. Exposed so the sweep service applies the identical
     * schedule to queue retries and tests can pin it.
     */
    static double backoffSeconds(double base, unsigned failed_attempt);

  private:
    SupervisorConfig cfg SOE_THREAD_OWNED(supervisor);
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SUPERVISOR_HH
