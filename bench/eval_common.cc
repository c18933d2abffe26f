#include "eval_common.hh"

#include <filesystem>
#include <iostream>
#include <set>

#include "harness/env.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

namespace soefair
{
namespace bench
{

using namespace harness;

namespace
{

/**
 * The campaign's write-ahead journal, the one store of evaluation
 * results. It lives under build/ so the repo root stays clean;
 * SOEFAIR_EVAL_DIR relocates it.
 */
std::string
journalPath()
{
    const std::string dir = env::getOr("SOEFAIR_EVAL_DIR", "build");
    std::filesystem::create_directories(dir);
    return dir + "/soefair_eval.journal";
}

} // namespace

EvalData
evaluationData()
{
    SweepCampaign campaign(MachineConfig::benchDefault(),
                           RunConfig::fromEnv(),
                           workload::spec::evaluationPairs(),
                           EvaluationSweep::standardLevels());

    SupervisorConfig cfg;
    cfg.deadlineSeconds = 3600.0;
    cfg.progress = &std::cerr;
    cfg.jobSlots =
        env::getUnsigned("SOEFAIR_EVAL_JOBS").value_or(cfg.jobSlots);

    // Resume the journal when there is one: cells it holds are
    // replayed, so a killed bench, or a second figure driver, never
    // re-simulates them.
    const std::string path = journalPath();
    std::cerr << "[eval] evaluation sweep (journal: " << path
              << ")...\n";
    CampaignResult agg;
    try {
        agg = campaign.run(cfg, path, std::filesystem::exists(path));
    } catch (const CheckpointError &e) {
        // A journal from a different configuration (e.g. another
        // SOEFAIR_SCALE) or a corrupt one: its results are unusable
        // here, so start over.
        warn("replacing incompatible eval journal '", path, "': ",
             e.what());
        agg = campaign.run(cfg, path, /*resume=*/false);
    }

    // Figure drivers index every standard level, so only fully
    // complete pairs are safe to hand them.
    std::set<std::string> incomplete;
    for (const auto &m : agg.missing)
        incomplete.insert(m.pair);
    EvalData data;
    for (auto &pr : agg.results) {
        if (!incomplete.count(pr.label()))
            data.pairs.push_back(std::move(pr));
    }
    data.missing = std::move(agg.missing);
    if (!data.complete()) {
        warn("evaluation sweep is PARTIAL (", data.missing.size(),
             " cell(s) missing); re-run to resume");
    }
    return data;
}

} // namespace bench
} // namespace soefair
