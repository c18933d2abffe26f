/**
 * @file
 * Regenerates paper Figure 8: achieved fairness with and without
 * enforcement. Left: per-run achieved fairness, runs ordered by
 * their F = 0 fairness. Right: the mean and standard deviation of
 * min(F, achieved) per enforcement level (truncation removes the
 * bias from runs that are fair without enforcement).
 */

#include <algorithm>
#include <iostream>

#include "core/metrics.hh"
#include "eval_common.hh"
#include "harness/table.hh"

using namespace soefair;
using namespace soefair::bench;
using harness::TextTable;

int
main()
{
    auto data = evaluationData();
    const auto &results = data.pairs;

    // Order runs by their F = 0 achieved fairness (paper's x-axis).
    std::vector<const harness::PairResult *> ordered;
    for (const auto &pr : results)
        ordered.push_back(&pr);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto *a, const auto *b) {
                  return a->level(0.0).fairness <
                         b->level(0.0).fairness;
              });

    std::cout << "Figure 8 (left): achieved fairness per run, "
              << "ordered by F = 0 fairness\n\n";
    TextTable t({"pair", "F=0", "F=1/4", "F=1/2", "F=1"});
    for (const auto &m : data.missing)
        t.addSpanRow(m.marker());
    for (const auto *pr : ordered) {
        t.addRow({pr->label(),
                  TextTable::num(pr->level(0.0).fairness, 3),
                  TextTable::num(pr->level(0.25).fairness, 3),
                  TextTable::num(pr->level(0.5).fairness, 3),
                  TextTable::num(pr->level(1.0).fairness, 3)});
    }
    t.print(std::cout);

    std::cout << "\nFigure 8 (right): average achieved fairness, "
              << "truncated at the target\n(min(F, achieved); no "
              << "truncation at F = 0)\n\n";
    TextTable avg({"F", "mean", "stddev", "target"});
    for (double f : harness::EvaluationSweep::standardLevels()) {
        std::vector<double> vals;
        for (const auto &pr : results) {
            vals.push_back(
                core::truncateAtTarget(pr.level(f).fairness, f));
        }
        if (vals.empty()) {
            avg.addRow({f == 0 ? "0" : TextTable::num(f, 2), "-",
                        "-", f == 0 ? "-" : TextTable::num(f, 2)});
            continue;
        }
        auto ms = core::meanStd(vals);
        avg.addRow({f == 0 ? "0" : TextTable::num(f, 2),
                    TextTable::num(ms.mean, 3),
                    TextTable::num(ms.stddev, 3),
                    f == 0 ? "-" : TextTable::num(f, 2)});
    }
    avg.print(std::cout);

    // Headline: fraction of F = 0 runs with severe unfairness.
    unsigned severe = 0;
    for (const auto &pr : results)
        severe += pr.level(0.0).fairness < 0.1 ? 1 : 0;
    std::cout << "\n" << severe << " of " << results.size()
              << " runs have F=0 fairness below 0.1 (paper: over a "
              << "third of runs had one\nthread running 10-100x "
              << "slower than alone).\n";
    return 0;
}
