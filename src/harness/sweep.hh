/**
 * @file
 * The paper's evaluation sweep: the 16 two-thread benchmark
 * combinations, each run single-threaded and under SOE at several
 * enforcement levels (F = 0, 1/4, 1/2, 1). Figures 6, 7 and 8 are
 * different projections of this one dataset.
 */

#ifndef SOEFAIR_HARNESS_SWEEP_HH
#define SOEFAIR_HARNESS_SWEEP_HH

#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/supervisor.hh"

namespace soefair
{
namespace harness
{

/** One pair at one enforcement level. */
struct LevelResult
{
    double targetF = 0.0;
    SoeRunResult run;
    /** Speedups IPC_SOE_j / IPC_ST_j. */
    std::vector<double> speedups;
    /** Achieved fairness (Eq. 4) from real single-thread IPCs. */
    double fairness = 0.0;
    /** Total throughput / mean single-thread IPC. */
    double speedupOverSt = 0.0;
};

/** One benchmark pair across every enforcement level. */
struct PairResult
{
    std::string nameA;
    std::string nameB;
    StRunResult stA;
    StRunResult stB;
    std::vector<LevelResult> levels;

    std::string label() const { return nameA + ":" + nameB; }
    const LevelResult &level(double f) const;
};

/** The paper's evaluation levels; SweepCampaign runs the sweep. */
class EvaluationSweep
{
  public:
    /** The standard enforcement levels: 0, 1/4, 1/2, 1. */
    static std::vector<double> standardLevels();
};

/** Seed used for thread `idx` of a pair (homogeneous pairs get
 *  decorrelated streams, the paper's 1M-instruction offset). */
std::uint64_t pairSeed(unsigned idx);

/** An evaluation cell the campaign could not produce. */
struct MissingCell
{
    std::string pair;   ///< "a:b" label of the owning pair
    std::string what;   ///< "ST:<bench>" or "F=<level>"
    std::string reason; ///< e.g. "watchdog after 1 attempt(s)"

    /** The explicit gap marker emitted in CSV/table output. */
    std::string marker() const
    {
        return "MISSING(" + pair + "," + what + "," + reason + ")";
    }
};

/**
 * Outcome of a supervised campaign: every completed cell, assembled
 * into PairResults (levels may be sparse; a pair whose baselines
 * failed is omitted entirely), plus an explicit entry for every gap.
 */
struct CampaignResult
{
    std::vector<PairResult> results;
    std::vector<MissingCell> missing;

    bool complete() const { return missing.empty(); }
    /** 0 complete, 20 partial, 21 when no pair has a result row. */
    int exitCode() const;
    /** The end-of-sweep message for exitCode() on `os`: PARTIAL or
     *  FAILED with the journal to resume, then one line per missing
     *  cell. Nothing when the campaign is complete. */
    void reportMissing(std::ostream &os,
                       const std::string &journal) const;
};

/**
 * Write campaign results as CSV: the usual rows for completed cells
 * followed by one `MISSING(pair,cell,reason)` line per gap, so
 * partial campaigns degrade visibly instead of silently dropping
 * rows.
 */
void writeCampaignCsv(std::ostream &os, const CampaignResult &agg);

/**
 * The paper's evaluation sweep decomposed into independent,
 * crash-isolated jobs for the SweepSupervisor: one job per unique
 * single-thread baseline (bench, seed) — shared by every enforcement
 * level and pair that needs it — and one per pair x level. Job
 * results round-trip through the write-ahead journal, so a resumed
 * campaign aggregates byte-identically to an uninterrupted one.
 */
class SweepCampaign
{
  public:
    SweepCampaign(const MachineConfig &machine, const RunConfig &rc,
                  std::vector<std::pair<std::string, std::string>>
                      pairs,
                  std::vector<double> f_levels);

    // jobs() hands out closures that point at the campaign.
    SweepCampaign(const SweepCampaign &) = delete;
    SweepCampaign &operator=(const SweepCampaign &) = delete;

    /** Configuration fingerprint stored in the journal header; a
     *  resume against a differing key raises CheckpointError. */
    std::string journalKey() const;

    /**
     * The campaign's jobs in deterministic order (baselines first,
     * then pair x level). Each job's body refers back to this
     * campaign, which must outlive the jobs. setAttemptHook() takes
     * effect on jobs already built.
     */
    std::vector<SupervisorJob> jobs() const;

    /** Every valid job id (journal validation on resume). */
    std::set<std::string> jobIds() const;

    /** Assemble results from supervised outcomes, recording a
     *  MissingCell for every cell that did not complete. */
    CampaignResult aggregate(
        const std::vector<JobOutcome> &outcomes) const;

    /**
     * Convenience wrapper: build the jobs, open/create the journal
     * at `journal_path` (resume appends; otherwise the file is
     * recreated), supervise, aggregate. The journal stays locked
     * for the whole run (see JournalWriter), so a second process
     * running a campaign on the same file waits for this one.
     */
    CampaignResult run(const SupervisorConfig &scfg,
                       const std::string &journal_path,
                       bool resume) const;

    /**
     * Test hook, invoked in the forked child at the start of every
     * attempt: the one fault-injection point. The supervisor tests
     * (tests/test_supervisor.cc) use it to hang, kill or typed-fail
     * specific jobs.
     */
    void setAttemptHook(
        std::function<void(const std::string &job_id,
                           unsigned attempt)> hook);

    /** Deterministic label for an enforcement level ("0.25"). */
    static std::string levelLabel(double f);
    static std::string stJobId(const std::string &bench,
                               std::uint64_t seed);
    static std::string soeJobId(const std::string &bench_a,
                                const std::string &bench_b, double f);

  private:
    /** One job: a single-thread baseline of benchA, or the pair
     *  benchA:benchB at level f. */
    struct JobSpec
    {
        std::string id;
        bool soe = false;
        std::string benchA;
        std::string benchB;
        std::uint64_t seedA = 0;
        std::uint64_t seedB = 0;
        double f = 0.0;
    };

    /** Body of job `index`: runs it and returns its payload. */
    std::string runJob(std::size_t index, unsigned attempt) const;

    MachineConfig mc;
    RunConfig rc;
    std::vector<std::pair<std::string, std::string>> pairList;
    std::vector<double> fLevels;
    /** levelLabel() of each level, formatted once. */
    std::vector<std::string> fLabels;
    /** Every job, in jobs() order, built once by the constructor. */
    std::vector<JobSpec> jobSpecs;
    std::function<void(const std::string &, unsigned)> attemptHook;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SWEEP_HH
