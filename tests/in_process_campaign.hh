/**
 * @file
 * The in-process reference for the evaluation path: every job of a
 * SweepCampaign run in this process, one after another, through the
 * same payload encoding the journal stores, then aggregated as
 * SweepCampaign::run aggregates. No fork, no journal and no slot
 * count, so the supervised runs (and the figure-level checks) have
 * one fixed thing to compare against.
 */

#ifndef SOEFAIR_TESTS_IN_PROCESS_CAMPAIGN_HH
#define SOEFAIR_TESTS_IN_PROCESS_CAMPAIGN_HH

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/supervisor.hh"
#include "harness/sweep.hh"

namespace soefair
{
namespace test
{

/** The campaign over `pairs` x `levels`: each job run once, in
 *  order, then aggregated. */
inline harness::CampaignResult
runCampaignInProcess(
    const harness::MachineConfig &mc, const harness::RunConfig &rc,
    std::vector<std::pair<std::string, std::string>> pairs,
    std::vector<double> levels)
{
    const harness::SweepCampaign campaign(mc, rc, std::move(pairs),
                                          std::move(levels));
    std::vector<harness::JobOutcome> outcomes;
    for (const auto &job : campaign.jobs()) {
        harness::JobOutcome o;
        o.id = job.id;
        o.payload = job.run(1);
        o.done = true;
        o.attempts = 1;
        outcomes.push_back(std::move(o));
    }
    return campaign.aggregate(outcomes);
}

/** One pair a:b at `levels`, run in-process. Throws when the pair
 *  has no result row. */
inline harness::PairResult
pairInProcess(const harness::MachineConfig &mc,
              const harness::RunConfig &rc, const std::string &a,
              const std::string &b, std::vector<double> levels)
{
    harness::CampaignResult agg =
        runCampaignInProcess(mc, rc, {{a, b}}, std::move(levels));
    return std::move(agg.results.at(0));
}

/** writeCampaignCsv's output, as a string. */
inline std::string
campaignCsv(const harness::CampaignResult &agg)
{
    std::ostringstream os;
    harness::writeCampaignCsv(os, agg);
    return os.str();
}

} // namespace test
} // namespace soefair

#endif // SOEFAIR_TESTS_IN_PROCESS_CAMPAIGN_HH
