#include "harness/sweep.hh"

#include <charconv>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string_view>

#include "core/metrics.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "soe/policies.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace harness
{

std::uint64_t
pairSeed(unsigned idx)
{
    return deriveSeed(0x50EFA1Full, idx + 1);
}

const LevelResult &
PairResult::level(double f) const
{
    for (const auto &l : levels) {
        if (l.targetF == f)
            return l;
    }
    fatal("no level F=", f, " for pair ", label());
}

std::vector<double>
EvaluationSweep::standardLevels()
{
    return {0.0, 0.25, 0.5, 1.0};
}

void
writeCampaignCsv(std::ostream &out, const CampaignResult &agg)
{
    using statistics::statfmt::csv;
    statistics::statfmt::Writer os;
    os << "pair,F,ipcST_A,ipcST_B,ipcA,ipcB,ipcTotal,fairness,"
       << "speedupOverST,cycles,switchesMiss,switchesForced,"
       << "switchesQuota\n";
    for (const auto &pr : agg.results) {
        for (const auto &l : pr.levels) {
            os << pr.label() << ',' << csv(l.targetF) << ','
               << csv(pr.stA.ipc) << ',' << csv(pr.stB.ipc) << ','
               << csv(l.run.threads[0].ipc) << ','
               << csv(l.run.threads[1].ipc) << ','
               << csv(l.run.ipcTotal) << ',' << csv(l.fairness) << ','
               << csv(l.speedupOverSt) << ',' << l.run.cycles << ','
               << l.run.switchesMiss << ',' << l.run.switchesForced
               << ',' << l.run.switchesQuota << "\n";
        }
    }
    for (const auto &m : agg.missing)
        os << m.marker() << "\n";
    out << os.str();
}

int
CampaignResult::exitCode() const
{
    if (complete())
        return 0;
    return results.empty() ? exitCampaignFailed
                           : exitCampaignPartial;
}

void
CampaignResult::reportMissing(std::ostream &os,
                              const std::string &journal) const
{
    if (complete())
        return;
    os << (exitCode() == exitCampaignFailed
               ? "[sweep] FAILED: no pair has a result row; "
               : "[sweep] PARTIAL results: ")
       << missing.size() << " cell(s) missing (journal: " << journal
       << "; finish with `sweep --resume " << journal << "`)\n";
    for (const auto &m : missing)
        os << "[sweep]   " << m.marker() << "\n";
}

namespace
{

/** Seeds of a pair's two threads. */
std::pair<std::uint64_t, std::uint64_t>
pairSeeds(const std::string &a, const std::string &b)
{
    return {pairSeed(0), a == b ? pairSeed(1) : pairSeed(0)};
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
failureReason(const JobOutcome &o)
{
    return o.failClass + " after " + std::to_string(o.attempts) +
           " attempt(s)";
}

/** Concatenate `parts` with one allocation. */
std::string
joinParts(std::initializer_list<std::string_view> parts)
{
    std::size_t size = 0;
    for (std::string_view p : parts)
        size += p.size();
    std::string out;
    out.reserve(size);
    for (std::string_view p : parts)
        out.append(p);
    return out;
}

/** soeJobId with the level already formatted by levelLabel. */
std::string
soeJobIdOfLabel(const std::string &bench_a, const std::string &bench_b,
                const std::string &level_label)
{
    return joinParts({"soe:", bench_a, ":", bench_b, ":F=",
                      level_label});
}

} // namespace

SweepCampaign::SweepCampaign(
    const MachineConfig &machine, const RunConfig &run_config,
    std::vector<std::pair<std::string, std::string>> pairs,
    std::vector<double> f_levels)
    : mc(machine), rc(run_config), pairList(std::move(pairs)),
      fLevels(std::move(f_levels))
{
    mc.validate();
    for (double f : fLevels)
        fLabels.push_back(levelLabel(f));

    // Baselines first, one per unique (bench, seed).
    jobSpecs.reserve(pairList.size() * (2 + fLevels.size()));
    auto addSt = [&](const std::string &bench, std::uint64_t seed) {
        for (const JobSpec &j : jobSpecs) {
            if (j.benchA == bench && j.seedA == seed)
                return;
        }
        JobSpec j;
        j.id = stJobId(bench, seed);
        j.benchA = bench;
        j.seedA = seed;
        jobSpecs.push_back(std::move(j));
    };
    for (const auto &[a, b] : pairList) {
        const auto [seedA, seedB] = pairSeeds(a, b);
        addSt(a, seedA);
        addSt(b, seedB);
    }
    for (const auto &[a, b] : pairList) {
        const auto [seedA, seedB] = pairSeeds(a, b);
        for (std::size_t l = 0; l < fLevels.size(); ++l) {
            JobSpec j;
            j.id = soeJobIdOfLabel(a, b, fLabels[l]);
            j.soe = true;
            j.benchA = a;
            j.benchB = b;
            j.seedA = seedA;
            j.seedB = seedB;
            j.f = fLevels[l];
            jobSpecs.push_back(std::move(j));
        }
    }
}

void
SweepCampaign::setAttemptHook(
    std::function<void(const std::string &, unsigned)> hook)
{
    attemptHook = std::move(hook);
}

std::string
SweepCampaign::levelLabel(double f)
{
    return statistics::statfmt::csv(f);
}

std::string
SweepCampaign::stJobId(const std::string &bench, std::uint64_t seed)
{
    char digits[20];
    const auto res = std::to_chars(digits, digits + sizeof digits, seed);
    return joinParts({"st:", bench, ":",
                      std::string_view(digits, res.ptr - digits)});
}

std::string
SweepCampaign::soeJobId(const std::string &bench_a,
                        const std::string &bench_b, double f)
{
    return soeJobIdOfLabel(bench_a, bench_b, levelLabel(f));
}

std::string
SweepCampaign::journalKey() const
{
    std::ostringstream machineText;
    mc.print(machineText);
    statistics::statfmt::Writer os;
    os << "sweep-campaign-v1 machine=" << std::hex
       << fnv1a64(machineText.str()) << std::dec
       << " measure=" << rc.measureInstrs
       << " warm=" << rc.warmupInstrs
       << " twarm=" << rc.timingWarmInstrs
       << " maxcyc=" << rc.maxCycles << " pairs=";
    for (const auto &[a, b] : pairList)
        os << a << ":" << b << "|";
    os << " levels=";
    for (double f : fLevels)
        os << statistics::statfmt::full(f) << ",";
    return os.str();
}

std::string
SweepCampaign::runJob(std::size_t index, unsigned attempt) const
{
    const JobSpec &spec = jobSpecs[index];
    if (attemptHook)
        attemptHook(spec.id, attempt);
    Runner runner(mc);
    if (!spec.soe) {
        return encodeStPayload(runner.runSingleThread(
            ThreadSpec::benchmark(spec.benchA, spec.seedA), rc));
    }
    const std::vector<ThreadSpec> specs = {
        ThreadSpec::benchmark(spec.benchA, spec.seedA),
        ThreadSpec::benchmark(spec.benchB, spec.seedB),
    };
    SoeRunResult r;
    if (spec.f <= 0.0) {
        soe::MissOnlyPolicy policy;
        r = runner.runSoe(specs, policy, rc);
    } else {
        soe::FairnessPolicy policy(spec.f, mc.soe.missLatency, 2);
        r = runner.runSoe(specs, policy, rc);
    }
    return encodeSoePayload(r);
}

std::vector<SupervisorJob>
SweepCampaign::jobs() const
{
    // Each body is a campaign pointer and an index: std::function
    // holds that inline, so building the jobs allocates only ids.
    std::vector<SupervisorJob> out;
    out.reserve(jobSpecs.size());
    for (std::size_t i = 0; i < jobSpecs.size(); ++i) {
        out.push_back({jobSpecs[i].id, [this, i](unsigned attempt) {
                           return runJob(i, attempt);
                       }});
    }
    return out;
}

std::set<std::string>
SweepCampaign::jobIds() const
{
    std::set<std::string> ids;
    for (const JobSpec &j : jobSpecs)
        ids.insert(j.id);
    return ids;
}

CampaignResult
SweepCampaign::aggregate(
    const std::vector<JobOutcome> &outcomes) const
{
    std::map<std::string, const JobOutcome *> byId;
    for (const auto &o : outcomes)
        byId[o.id] = &o;
    auto find = [&](const std::string &id) -> const JobOutcome * {
        auto it = byId.find(id);
        return it == byId.end() ? nullptr : it->second;
    };

    CampaignResult agg;
    for (const auto &[a, b] : pairList) {
        const auto [seedA, seedB] = pairSeeds(a, b);
        PairResult pr;
        pr.nameA = a;
        pr.nameB = b;

        bool stOk = true;
        auto loadSt = [&](const std::string &bench,
                          std::uint64_t seed, StRunResult &dst) {
            const JobOutcome *o = find(stJobId(bench, seed));
            if (!o || !o->done) {
                agg.missing.push_back(
                    {pr.label(), "ST:" + bench,
                     o ? failureReason(*o) : "job not scheduled"});
                stOk = false;
                return;
            }
            if (!decodeStPayload(o->payload, dst)) {
                raiseError<CheckpointError>(
                    "corrupt journal payload for job '", o->id,
                    "': '", o->payload, "'");
            }
        };
        loadSt(a, seedA, pr.stA);
        loadSt(b, seedB, pr.stB);

        for (std::size_t l = 0; l < fLevels.size(); ++l) {
            const double f = fLevels[l];
            const JobOutcome *o = find(soeJobIdOfLabel(a, b, fLabels[l]));
            if (!o || !o->done) {
                agg.missing.push_back(
                    {pr.label(), "F=" + fLabels[l],
                     o ? failureReason(*o) : "job not scheduled"});
                continue;
            }
            if (!stOk) {
                // The SOE run completed but its speedups need the
                // single-thread baselines: still a visible gap.
                agg.missing.push_back({pr.label(), "F=" + fLabels[l],
                                       "baseline missing"});
                continue;
            }
            LevelResult lr;
            lr.targetF = f;
            if (!decodeSoePayload(o->payload, lr.run) ||
                lr.run.threads.size() != 2) {
                raiseError<CheckpointError>(
                    "corrupt journal payload for job '", o->id,
                    "': '", o->payload, "'");
            }
            lr.speedups = {lr.run.threads[0].ipc / pr.stA.ipc,
                           lr.run.threads[1].ipc / pr.stB.ipc};
            lr.fairness = core::fairnessOfSpeedups(lr.speedups);
            const double stMean = 0.5 * (pr.stA.ipc + pr.stB.ipc);
            lr.speedupOverSt = lr.run.ipcTotal / stMean;
            pr.levels.push_back(std::move(lr));
        }
        if (stOk && !pr.levels.empty())
            agg.results.push_back(std::move(pr));
    }
    return agg;
}

CampaignResult
SweepCampaign::run(const SupervisorConfig &scfg,
                   const std::string &journal_path,
                   bool resume) const
{
    const auto jobList = jobs();
    JournalWriter journal;
    JournalState prior;
    const JournalState *priorPtr = nullptr;
    if (resume) {
        // Lock before loading, so the records read are final, and
        // validate before openAppend cuts a torn tail.
        journal.lock(journal_path);
        const auto ids = jobIds();
        prior = loadJournal(journal_path, journalKey(),
                            /*tolerate_torn_tail=*/true, &ids);
        journal.openAppend(journal_path);
        priorPtr = &prior;
    } else {
        journal.create(journal_path, journalKey());
    }
    SweepSupervisor supervisor(scfg);
    auto outcomes = supervisor.run(jobList, &journal, priorPtr);
    journal.close();
    return aggregate(outcomes);
}

} // namespace harness
} // namespace soefair
