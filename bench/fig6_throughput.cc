/**
 * @file
 * Regenerates paper Figure 6: SOE throughput (IPC_SOE stacked per
 * thread) for every benchmark pair at F = 0, 1/4, 1/2 and 1, plus
 * the single-thread IPC of both threads — and the headline average
 * SOE speedup over single thread per enforcement level (paper: 24%,
 * 21%, 19%, 15%).
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

    std::cout << "Figure 6: throughput of the benchmark pairs "
              << "(IPC of thread A + thread B = total)\n\n";

    TextTable t({"pair", "ipcST_A", "ipcST_B", "F", "ipcA", "ipcB",
                 "ipcSOE", "speedup/ST"});
    for (const auto &m : data.missing)
        t.addSpanRow(m.marker());
    std::vector<double> speedupSums(ls.size(), 0.0);

    for (const auto &pr : results) {
        bool first = true;
        for (std::size_t li = 0; li < pr.levels.size(); ++li) {
            const auto &l = pr.levels[li];
            speedupSums[li] += l.speedupOverSt;
            t.addRow({first ? pr.label() : "",
                      first ? TextTable::num(pr.stA.ipc, 3) : "",
                      first ? TextTable::num(pr.stB.ipc, 3) : "",
                      l.targetF == 0 ? "0" : TextTable::num(l.targetF, 2),
                      TextTable::num(l.run.threads[0].ipc, 3),
                      TextTable::num(l.run.threads[1].ipc, 3),
                      TextTable::num(l.run.ipcTotal, 3),
                      TextTable::num(l.speedupOverSt, 3)});
            first = false;
        }
    }
    t.print(std::cout);

    std::cout << "\nAverage SOE speedup over single thread:\n";
    TextTable avg({"F", "avg speedup", "paper"});
    const char *paperVals[] = {"1.24", "1.21", "1.19", "1.15"};
    for (std::size_t li = 0; li < ls.size(); ++li) {
        avg.addRow({ls[li] == 0 ? "0" : TextTable::num(ls[li], 2),
                    results.empty()
                        ? "-"
                        : TextTable::num(speedupSums[li] /
                                             double(results.size()),
                                         3),
                    paperVals[li]});
    }
    avg.print(std::cout);
    return 0;
}
