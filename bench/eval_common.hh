/**
 * @file
 * Shared driver for the evaluation benches (Figures 6, 7 and 8).
 *
 * All three figures are projections of one dataset: the 16 benchmark
 * pairs, each run single-threaded and under SOE at F = 0, 1/4, 1/2
 * and 1. Running that sweep takes minutes, so it runs as a
 * SweepCampaign whose write-ahead journal (soefair_eval.journal
 * under $SOEFAIR_EVAL_DIR, default build/) the next bench replays.
 * The journal key is the campaign's full configuration fingerprint:
 * any configuration change (scale, machine, levels) starts a fresh
 * journal automatically.
 */

#ifndef SOEFAIR_BENCH_EVAL_COMMON_HH
#define SOEFAIR_BENCH_EVAL_COMMON_HH

#include <vector>

#include "harness/sweep.hh"

namespace soefair
{
namespace bench
{

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
 * Obtain the full evaluation dataset by running the campaign on its
 * journal (see docs/robustness.md). An existing journal is resumed:
 * its finished cells are replayed and only the rest run, so a second
 * figure driver, or a re-run after a crash, does not re-simulate
 * them. A journal from another configuration, or a corrupt one, is
 * recreated with a warning. Two drivers started together share the
 * journal one after the other: the second waits for the first's
 * lock, then replays.
 */
EvalData evaluationData();

} // namespace bench
} // namespace soefair

#endif // SOEFAIR_BENCH_EVAL_COMMON_HH
