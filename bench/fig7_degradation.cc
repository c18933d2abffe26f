/**
 * @file
 * Regenerates paper Figure 7: SOE throughput degradation due to
 * fairness enforcement (normalized to F = 0) together with the
 * number of forced thread switches per 1000 cycles — and the
 * headline average degradation (paper: 2.2%, 3.7% and 7.2% for
 * F = 1/4, 1/2 and 1).
 */

#include <iostream>

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
    const auto ls = harness::EvaluationSweep::standardLevels();

    std::cout << "Figure 7: throughput degradation and forced "
              << "switches per 1000 cycles\n(throughput normalized "
              << "to the F = 0 run of the same pair)\n\n";

    TextTable t({"pair", "F", "norm throughput", "forced/1kcyc"});
    for (const auto &m : data.missing)
        t.addSpanRow(m.marker());
    std::vector<double> normSums(ls.size(), 0.0);

    for (const auto &pr : results) {
        const double base = pr.level(0.0).run.ipcTotal;
        bool first = true;
        for (std::size_t li = 0; li < pr.levels.size(); ++li) {
            const auto &l = pr.levels[li];
            const double norm = l.run.ipcTotal / base;
            normSums[li] += norm;
            const double forcedRate = l.run.cycles
                ? 1000.0 * double(l.run.switchesForced) /
                    double(l.run.cycles)
                : 0.0;
            t.addRow({first ? pr.label() : "",
                      l.targetF == 0 ? "0"
                                     : TextTable::num(l.targetF, 2),
                      TextTable::num(norm, 4),
                      TextTable::num(forcedRate, 2)});
            first = false;
        }
    }
    t.print(std::cout);

    std::cout << "\nAverage throughput degradation vs F = 0:\n";
    TextTable avg({"F", "avg norm", "degradation %", "paper %"});
    const char *paperVals[] = {"0.0", "2.2", "3.7", "7.2"};
    for (std::size_t li = 0; li < ls.size(); ++li) {
        const double mean = results.empty()
            ? 0.0
            : normSums[li] / double(results.size());
        avg.addRow({ls[li] == 0 ? "0" : TextTable::num(ls[li], 2),
                    TextTable::num(mean, 4),
                    TextTable::num(100.0 * (1.0 - mean), 1),
                    paperVals[li]});
    }
    avg.print(std::cout);

    std::cout << "\nShape checks vs the paper: degradation grows "
              << "monotonically with F; pairs with\nsimilar IPC_ST "
              << "(e.g. lucas:applu, homogeneous pairs) barely "
              << "degrade; pairs with\nvery different IPC_ST (e.g. "
              << "galgel:gcc) degrade the most; forced-switch rate\n"
              << "correlates with the throughput loss.\n";
    return 0;
}
