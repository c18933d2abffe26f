/** @file Tests for sweep CSV output. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/sweep.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

std::vector<PairResult>
sampleResults()
{
    std::vector<PairResult> v;
    PairResult pr;
    pr.nameA = "gcc";
    pr.nameB = "eon";
    pr.stA.ipc = 0.7;
    pr.stB.ipc = 2.8;
    for (double f : {0.0, 0.5}) {
        LevelResult l;
        l.targetF = f;
        l.run.threads.resize(2);
        l.run.threads[0].ipc = f == 0.0 ? 0.02 : 0.2;
        l.run.threads[1].ipc = f == 0.0 ? 3.0 : 2.4;
        l.run.ipcTotal =
            l.run.threads[0].ipc + l.run.threads[1].ipc;
        l.run.cycles = 123456;
        l.run.switchesMiss = 10;
        l.run.switchesForced = f == 0.0 ? 0 : 42;
        l.run.switchesQuota = 1;
        l.fairness = f == 0.0 ? 0.03 : 0.33;
        l.speedupOverSt = 1.5;
        l.speedups = {l.run.threads[0].ipc / pr.stA.ipc,
                      l.run.threads[1].ipc / pr.stB.ipc};
        pr.levels.push_back(l);
    }
    v.push_back(pr);
    return v;
}

} // namespace

TEST(SweepIo, CsvHasHeaderAndRows)
{
    std::ostringstream os;
    writePairResultsCsv(os, sampleResults());
    const std::string s = os.str();
    EXPECT_NE(s.find("pair,F,ipcST_A"), std::string::npos);
    EXPECT_NE(s.find("gcc:eon,0,"), std::string::npos);
    EXPECT_NE(s.find("gcc:eon,0.5,"), std::string::npos);
    // One header + two level rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 3);
}
