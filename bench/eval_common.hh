/**
 * @file
 * Shared driver for the evaluation benches (Figures 6, 7 and 8).
 *
 * All three figures are projections of one dataset: the 16 benchmark
 * pairs, each run single-threaded and under SOE at F = 0, 1/4, 1/2
 * and 1. Running that sweep takes minutes, so the first bench to
 * need it writes a cache file (soefair_eval_cache.txt under
 * $SOEFAIR_EVAL_DIR, default build/) and the others load it. The
 * cache key is the campaign's full configuration fingerprint: any
 * configuration change (scale, machine, levels) invalidates it
 * automatically.
 */

#ifndef SOEFAIR_BENCH_EVAL_COMMON_HH
#define SOEFAIR_BENCH_EVAL_COMMON_HH

#include <string>
#include <vector>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"

namespace soefair
{
namespace bench
{

/** The machine/run configuration every evaluation bench uses. */
harness::MachineConfig evalMachine();
harness::RunConfig evalRunConfig();

/**
 * The evaluation dataset plus explicit gaps. `pairs` holds only
 * pairs with every cell present (safe for PairResult::level());
 * `missing` lists each cell the campaign could not produce, which
 * the figure drivers print as MISSING(...) markers instead of
 * silently dropping rows.
 */
struct EvalData
{
    std::vector<harness::PairResult> pairs;
    std::vector<harness::MissingCell> missing;

    bool complete() const { return missing.empty(); }
};

/**
 * Obtain the full evaluation dataset, from the cache file if its
 * key matches the campaign's full configuration fingerprint, else
 * by draining the sweep through the durable job service (see
 * docs/robustness.md): jobs are enqueued into
 * $SOEFAIR_EVAL_DIR/soefair_eval_queue/ and results committed to
 * the content-addressed result cache soefair_eval_rcache/ next to
 * it, so a second figure driver — or a re-run after a crash — is
 * served from the cache (single-thread baselines included) instead
 * of re-simulating. The text cache is written only once the
 * campaign is complete.
 */
EvalData evaluationData();

/** Back-compat wrapper: evaluationData().pairs (warns on gaps). */
std::vector<harness::PairResult> evaluationResults();

/** The standard enforcement levels: 0, 1/4, 1/2, 1. */
std::vector<double> levels();

} // namespace bench
} // namespace soefair

#endif // SOEFAIR_BENCH_EVAL_COMMON_HH
