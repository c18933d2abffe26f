/** @file Tests for sweep CSV output. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/sweep.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

CampaignResult
sampleCampaign()
{
    CampaignResult agg;
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
    agg.results.push_back(std::move(pr));
    agg.missing.push_back({"gcc:eon", "F=1", "watchdog after 1 attempt(s)"});
    return agg;
}

} // namespace

TEST(SweepIo, CsvHasHeaderAndRows)
{
    std::ostringstream os;
    writeCampaignCsv(os, sampleCampaign());
    const std::string s = os.str();
    EXPECT_EQ(s.rfind("pair,F,ipcST_A", 0), 0u);
    EXPECT_NE(s.find("\ngcc:eon,0,"), std::string::npos);
    EXPECT_NE(s.find("\ngcc:eon,0.5,"), std::string::npos);
    // One header, two level rows, then the gap's marker line last.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
    const std::string marker =
        "MISSING(gcc:eon,F=1,watchdog after 1 attempt(s))\n";
    ASSERT_GE(s.size(), marker.size());
    EXPECT_EQ(s.substr(s.size() - marker.size()), marker);
}
