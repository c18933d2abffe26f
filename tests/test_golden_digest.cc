/**
 * @file
 * Cross-version determinism golden. The other determinism tests
 * compare two runs of the same binary, so a refactor that changes
 * both sides alike still passes them. These constants are CRC-32s of
 * the full statistics dump plus the encoded result payload of short
 * runs, recorded once; any change to the simulated machine's timing,
 * to the workload stream or to the stats tree changes them. A change
 * that is meant to move results must refresh them deliberately.
 * The last constant pins the evaluation CSV (Figs. 6-8): the pair
 * seed rule, the speedup and fairness formulas and the columns.
 *
 * Every run is checked with fast-forward on and off against the same
 * constant, so the fast-forward contract is pinned across versions
 * too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "in_process_campaign.hh"
#include "sim/crc32.hh"
#include "soe/policies.hh"

using namespace soefair;
using harness::MachineConfig;
using harness::RunConfig;
using harness::Runner;
using harness::ThreadSpec;

namespace
{

RunConfig
goldenRun(bool fast_forward, std::ostream *dump)
{
    RunConfig rc;
    rc.warmupInstrs = 30 * 1000;
    rc.timingWarmInstrs = 5 * 1000;
    rc.measureInstrs = 20 * 1000;
    rc.fastForward = fast_forward;
    rc.statsDump = dump;
    return rc;
}

std::uint32_t
stDigest(const std::string &bench, std::uint64_t seed, bool ff)
{
    std::ostringstream os;
    Runner runner(MachineConfig::benchDefault());
    auto r = runner.runSingleThread(ThreadSpec::benchmark(bench, seed),
                                    goldenRun(ff, &os));
    return sim::crc32(harness::encodeStPayload(r) + "\n" + os.str());
}

/**
 * Thread t runs benches[t] at seed 21 + t. f == 0 is the miss-only
 * policy, as in the evaluation sweep.
 */
std::uint32_t
soeDigest(const std::vector<std::string> &benches, double f, bool ff)
{
    std::ostringstream os;
    Runner runner(MachineConfig::benchDefault());
    std::vector<ThreadSpec> specs;
    for (std::size_t t = 0; t < benches.size(); ++t)
        specs.push_back(ThreadSpec::benchmark(benches[t], 21 + t));
    harness::SoeRunResult r;
    if (f == 0.0) {
        soe::MissOnlyPolicy pol;
        r = runner.runSoe(specs, pol, goldenRun(ff, &os));
    } else {
        soe::FairnessPolicy pol(f, 300.0, unsigned(specs.size()));
        r = runner.runSoe(specs, pol, goldenRun(ff, &os));
    }
    return sim::crc32(harness::encodeSoePayload(r) + "\n" + os.str());
}

} // namespace

TEST(GoldenDigest, SingleThreadGcc)
{
    constexpr std::uint32_t golden = 0x5fb42ffbu;
    for (bool ff : {true, false})
        EXPECT_EQ(stDigest("gcc", 5, ff), golden) << "ff " << ff;
}

TEST(GoldenDigest, SoeGccEonHalfFair)
{
    constexpr std::uint32_t golden = 0x2a53307fu;
    for (bool ff : {true, false})
        EXPECT_EQ(soeDigest({"gcc", "eon"}, 0.5, ff), golden) << "ff " << ff;
}

TEST(GoldenDigest, SoeMcfSwimHalfFair)
{
    constexpr std::uint32_t golden = 0x2fc090c7u;
    for (bool ff : {true, false})
        EXPECT_EQ(soeDigest({"mcf", "swim"}, 0.5, ff), golden)
            << "ff " << ff;
}

TEST(GoldenDigest, SoeGccArtMissOnly)
{
    constexpr std::uint32_t golden = 0x154304e3u;
    for (bool ff : {true, false})
        EXPECT_EQ(soeDigest({"gcc", "art"}, 0.0, ff), golden)
            << "ff " << ff;
}

/** Four threads, so N > 2 instruction streams are pinned too. */
TEST(GoldenDigest, SoeFourThreadsHalfFair)
{
    constexpr std::uint32_t golden = 0xd42abafbu;
    for (bool ff : {true, false})
        EXPECT_EQ(soeDigest({"gcc", "eon", "mcf", "art"}, 0.5, ff), golden)
            << "ff " << ff;
}

/**
 * The evaluation CSV of gcc:eon at F = 0 and 1/2 plus bzip2:bzip2 at
 * F = 0, a homogeneous pair, so the second thread's seed rule is
 * pinned too. Every job runs through the journal's payload codec.
 */
TEST(GoldenDigest, EvaluationCampaignCsv)
{
    constexpr std::uint32_t golden = 0x3d1775b4u;
    const MachineConfig mc = MachineConfig::benchDefault();
    for (bool ff : {true, false}) {
        const RunConfig rc = goldenRun(ff, nullptr);
        harness::CampaignResult agg =
            test::runCampaignInProcess(mc, rc, {{"gcc", "eon"}}, {0.0, 0.5});
        harness::CampaignResult homogeneous =
            test::runCampaignInProcess(mc, rc, {{"bzip2", "bzip2"}}, {0.0});
        ASSERT_TRUE(agg.complete() && homogeneous.complete());
        agg.results.push_back(std::move(homogeneous.results.at(0)));
        const std::string csv = test::campaignCsv(agg);
        EXPECT_EQ(sim::crc32(csv), golden) << "ff " << ff << "\n" << csv;
    }
}
