/**
 * @file
 * The soefair command-line driver.
 *
 *   soefair_cli <command> [args] [options]
 *
 * Commands:
 *   list                         list the available benchmarks
 *   machine                      print the simulated machine (Table 3)
 *   run-st <bench>               run one benchmark alone
 *   run-soe <benchA> <benchB>..  run 2+ benchmarks under SOE;
 *                                a name of the form trace:<path>
 *                                replays a recorded trace file
 *   record-trace <bench>         record a workload to a trace file
 *                                (--out file, --instrs N, --seed S)
 *   sweep                        run benchmark pairs across F levels
 *                                under the crash-isolated supervisor
 *                                and emit CSV (--pairs a:b,c:d
 *                                defaults to the paper's 16; --out
 *                                file defaults to stdout). Exits 0
 *                                when every cell completed, 20 when
 *                                results are partial (gaps appear as
 *                                MISSING(...) lines), 21 when no
 *                                cell completed.
 *   enqueue                      durably enqueue a sweep campaign
 *                                into a job queue directory
 *                                (--queue DIR; sweep's --pairs /
 *                                --levels / run options select the
 *                                campaign). Idempotent; exits 22
 *                                when admission control rejected
 *                                jobs (queue at capacity)
 *   serve                        worker loop: drain the queue under
 *                                lease-based claiming, serving jobs
 *                                from the verified result cache when
 *                                possible (--queue DIR --cache DIR).
 *                                Exits 0 on drain or graceful
 *                                SIGTERM shutdown
 *   drain                        enqueue (if needed) + serve +
 *                                aggregate: one-command service
 *                                campaign emitting the same CSV as
 *                                `sweep` (same exit codes)
 *   help [verb]                  the full verb registry: options and
 *                                exit codes per verb
 *   analytic                     evaluate the analytical model
 *   faults [scenario|all]        fault-injection harness: run one
 *                                scenario (or all) and report
 *                                pass/fail (--seed N, --dir D for
 *                                scratch files; --raw runs the bare
 *                                faulting path so the process exits
 *                                with the SimError's code — see
 *                                docs/robustness.md)
 *
 * Common options:
 *   --seed N          master seed base (default 1)
 *   --instrs N        measured instructions per thread
 *   --warmup N        functional warmup instructions per thread
 *   --scale X         scale all run lengths (like SOEFAIR_SCALE)
 *   --no-fastforward  tick every stall cycle instead of jumping
 *                     quiescent runs (results are byte-identical
 *                     either way; see docs/performance.md). The
 *                     SOEFAIR_FASTFORWARD=0 environment variable
 *                     does the same.
 *
 * sweep options (see docs/robustness.md for the supervisor):
 *   --levels a,b,..   enforcement levels (default 0,0.25,0.5,1)
 *   --journal F       write-ahead journal path (default
 *                     soefair_sweep.journal; recreated per run)
 *   --resume F        resume from an existing journal: completed
 *                     jobs are replayed, the rest re-run
 *   --jobs N          parallel forked job slots (default 1)
 *   --deadline S      per-attempt wall-clock deadline in seconds;
 *                     expired jobs are SIGKILLed (default 600)
 *   --retries N       max attempts per transiently-failing job (3)
 *   --backoff S       base retry backoff in seconds (default 0.25)
 *   --inject SPEC     test hook: job@action[@maxAttempt] provokes
 *                     `action` (hang | kill | input | watchdog) in
 *                     the named job's child for attempts up to
 *                     maxAttempt (default: all); repeatable
 *
 * service options (enqueue / serve / drain; docs/robustness.md):
 *   --queue DIR       job queue directory (required)
 *   --cache DIR       content-addressed result cache directory
 *                     (serve/drain; empty disables the cache)
 *   --capacity N      queue admission bound, 0 = unbounded (enqueue)
 *   --worker NAME     worker name recorded in lease records
 *   --lease S         lease duration in seconds (default 60); a
 *                     worker silent this long is presumed dead and
 *                     its job is reclaimed at the same attempt
 *   --heartbeat S     lease renewal interval (default lease/3)
 *   --poll S          idle poll interval while other workers hold
 *                     live leases (default 0.5)
 *   plus sweep's --jobs / --deadline / --retries / --backoff /
 *   --inject, which apply to the worker loop
 *
 * run-soe options:
 *   --policy P        miss-only | fairness | timeshare | quota
 *   --F X             target fairness for the fairness policy (0.5)
 *   --tsquota N       cycle quantum for timeshare (2000)
 *   --iquota N        instruction quota for the quota policy (2000)
 *   --measured        use measured Miss_lat (Section 6 extension)
 *   --l1-switch       also switch on L1 misses (Section 6 extension)
 *   --windows         print the per-delta-window table
 *   --stats           dump the full statistics tree to stderr
 *   --retire-trace F  write a text retirement trace to file F
 *
 * analytic options:
 *   --ipc a,b[,c...]  per-thread IPC_no_miss (default 2.5,2.5)
 *   --ipm a,b[,c...]  per-thread instructions per miss (15000,1000)
 *   --F X             target fairness (sweeps 0,1/4,1/2,1 if absent)
 *   --misslat N       model Miss_lat (300)
 *   --swlat N         model Switch_lat (25)
 */

#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/analytic.hh"
#include "core/metrics.hh"
#include "harness/cli.hh"
#include "harness/cli_verbs.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/service/service.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "sim/errors.hh"
#include "sim/faultinject.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "soe/policies.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workload/trace_file.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

int
usage()
{
    printCliHelp(std::cerr);
    return 2;
}

RunConfig
runConfigFrom(const CliOptions &opts)
{
    RunConfig rc = RunConfig::fromEnv();
    if (opts.hasOption("scale"))
        rc = rc.scaled(opts.getDouble("scale", 1.0));
    rc.measureInstrs = opts.getUint("instrs", rc.measureInstrs);
    rc.warmupInstrs = opts.getUint("warmup", rc.warmupInstrs);
    if (opts.hasFlag("stats"))
        rc.statsDump = &std::cerr;
    rc.retireTracePath = opts.getString("retire-trace", "");
    if (opts.hasFlag("no-fastforward"))
        rc.fastForward = false;
    return rc;
}

ThreadSpec
specFor(const std::string &name, std::uint64_t seed)
{
    if (name.rfind("trace:", 0) == 0)
        return ThreadSpec::trace(name.substr(6));
    return ThreadSpec::benchmark(name, seed);
}

std::vector<double>
parseList(const std::string &csv)
{
    std::vector<double> vals;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        vals.push_back(std::atof(item.c_str()));
    return vals;
}

int
cmdList()
{
    std::cout << "Available benchmarks (SPEC CPU2000 stand-ins):\n";
    for (const auto &name : workload::spec::allNames())
        std::cout << "  " << name << "\n";
    return 0;
}

int
cmdMachine()
{
    MachineConfig::paperDefault().print(std::cout);
    return 0;
}

int
cmdRunSt(const CliOptions &opts)
{
    if (opts.positional().size() < 2) {
        std::cerr << "run-st needs a benchmark name\n";
        return 2;
    }
    const std::string bench = opts.positional()[1];
    Runner runner(MachineConfig::benchDefault());
    auto res = runner.runSingleThread(
        ThreadSpec::benchmark(bench, opts.getUint("seed", 1)),
        runConfigFrom(opts));

    TextTable t({"metric", "value"});
    t.addRow({"IPC", TextTable::num(res.ipc, 4)});
    t.addRow({"instructions", std::to_string(res.instrs)});
    t.addRow({"cycles", std::to_string(res.cycles)});
    t.addRow({"L2 misses", std::to_string(res.misses)});
    t.addRow({"IPM", TextTable::num(res.ipm, 1)});
    t.addRow({"CPM", TextTable::num(res.cpm, 1)});
    t.print(std::cout);
    return 0;
}

int
cmdRunSoe(const CliOptions &opts)
{
    const auto &pos = opts.positional();
    if (pos.size() < 3) {
        std::cerr << "run-soe needs at least two benchmark names\n";
        return 2;
    }
    const unsigned n = unsigned(pos.size() - 1);
    const std::uint64_t seed = opts.getUint("seed", 1);

    MachineConfig mc = MachineConfig::benchDefault();
    if (opts.hasFlag("l1-switch"))
        mc.soe.switchOnL1Miss = true;
    Runner runner(mc);
    RunConfig rc = runConfigFrom(opts);

    std::vector<ThreadSpec> specs;
    std::vector<StRunResult> sts;
    for (unsigned i = 0; i < n; ++i) {
        specs.push_back(specFor(pos[1 + i], seed + i));
        std::cerr << "[cli] reference run: " << pos[1 + i] << "\n";
        // Reference runs never dump stats or traces.
        RunConfig refRc = rc;
        refRc.statsDump = nullptr;
        refRc.retireTracePath.clear();
        sts.push_back(runner.runSingleThread(specs.back(), refRc));
    }

    const std::string polName =
        opts.getString("policy", "fairness");
    std::unique_ptr<soe::SchedulingPolicy> policy;
    if (polName == "miss-only") {
        policy = std::make_unique<soe::MissOnlyPolicy>();
    } else if (polName == "fairness") {
        policy = std::make_unique<soe::FairnessPolicy>(
            opts.getDouble("F", 0.5), mc.soe.missLatency, n,
            opts.hasFlag("measured"));
    } else if (polName == "timeshare") {
        policy = std::make_unique<soe::TimeSharePolicy>(
            opts.getUint("tsquota", 2000));
    } else if (polName == "quota") {
        policy = std::make_unique<soe::FixedQuotaPolicy>(
            double(opts.getUint("iquota", 2000)));
    } else {
        std::cerr << "unknown policy '" << polName << "'\n";
        return 2;
    }

    std::cerr << "[cli] SOE run (" << policy->name() << ")\n";
    auto res = runner.runSoe(specs, *policy, rc,
                             opts.hasFlag("windows"));

    TextTable t({"thread", "bench", "IPC alone", "IPC SOE",
                 "speedup"});
    std::vector<double> speedups;
    for (unsigned i = 0; i < n; ++i) {
        speedups.push_back(res.threads[i].ipc / sts[i].ipc);
        t.addRow({std::to_string(i), pos[1 + i],
                  TextTable::num(sts[i].ipc, 3),
                  TextTable::num(res.threads[i].ipc, 3),
                  TextTable::num(speedups.back(), 3)});
    }
    t.print(std::cout);
    std::cout << "policy          : " << policy->name() << "\n"
              << "total IPC       : "
              << TextTable::num(res.ipcTotal, 4) << "\n"
              << "fairness (Eq.4) : "
              << TextTable::num(core::fairnessOfSpeedups(speedups), 3)
              << "\n"
              << "switches        : " << res.switchesMiss
              << " miss / " << res.switchesForced << " forced / "
              << res.switchesQuota << " quota\n";

    if (opts.hasFlag("windows")) {
        std::cout << "\nPer-delta windows:\n";
        TextTable w({"end tick", "measured Miss_lat", "quotas..."});
        for (const auto &win : res.windows) {
            std::string quotas;
            for (const auto &th : win.threads) {
                quotas += th.quota > 1e17
                    ? "inf "
                    : TextTable::num(th.quota, 0) + " ";
            }
            w.addRow({std::to_string(win.endTick),
                      TextTable::num(win.measuredMissLat, 0),
                      quotas});
        }
        w.print(std::cout);
    }
    return 0;
}

int
cmdRecordTrace(const CliOptions &opts)
{
    if (opts.positional().size() < 2) {
        std::cerr << "record-trace needs a benchmark name\n";
        return 2;
    }
    const std::string bench = opts.positional()[1];
    const std::string out =
        opts.getString("out", bench + ".soetrace");
    const std::uint64_t instrs =
        opts.getUint("instrs", 1000 * 1000);
    workload::WorkloadGenerator gen(
        workload::spec::byName(bench), 0, opts.getUint("seed", 1));
    workload::TraceWriter writer(out, 0);
    writer.record(gen, instrs);
    writer.close();
    std::cout << "wrote " << writer.written() << " ops to " << out
              << "\n";
    return 0;
}

/** One --inject spec: provoke `action` in `job`'s forked child for
 *  attempts up to `maxAttempt` (the supervisor test hook). */
struct InjectSpec
{
    std::string job;
    std::string action;
    unsigned maxAttempt = ~0u;
};

bool
parseInjects(const CliOptions &opts, std::vector<InjectSpec> &out)
{
    for (const auto &spec : opts.getStrings("inject")) {
        std::vector<std::string> parts;
        std::stringstream ss(spec);
        std::string item;
        while (std::getline(ss, item, '@'))
            parts.push_back(item);
        if (parts.size() < 2 || parts.size() > 3) {
            std::cerr << "--inject expects job@action[@maxAttempt], "
                      << "got '" << spec << "'\n";
            return false;
        }
        InjectSpec is;
        is.job = parts[0];
        is.action = parts[1];
        if (is.action != "hang" && is.action != "kill" &&
            is.action != "input" && is.action != "watchdog") {
            std::cerr << "--inject action must be hang | kill | "
                      << "input | watchdog, got '" << is.action
                      << "'\n";
            return false;
        }
        if (parts.size() == 3)
            is.maxAttempt = unsigned(std::atoi(parts[2].c_str()));
        out.push_back(std::move(is));
    }
    return true;
}

/** Runs inside the forked job child (the supervisor attempt hook). */
void
provokeInjectedFault(const InjectSpec &is)
{
    if (is.action == "hang") {
        // Busy-hang: only the supervisor's deadline SIGKILL ends it.
        volatile std::uint64_t spin = 0;
        for (;;)
            spin = spin + 1;
    } else if (is.action == "kill") {
        raise(SIGKILL);
    } else if (is.action == "input") {
        raiseError<InputError>("injected input fault in job '",
                               is.job, "'");
    } else if (is.action == "watchdog") {
        raiseError<WatchdogTimeout>("injected watchdog fault in ",
                                    "job '", is.job, "'");
    }
}

/** Parse the campaign selection shared by sweep / enqueue / serve /
 *  drain (--pairs, --levels, run options) into a manifest. */
bool
campaignFromOpts(const CliOptions &opts,
                 service::CampaignManifest &m)
{
    const std::string pairsArg = opts.getString("pairs", "");
    if (pairsArg.empty()) {
        m.pairs = workload::spec::evaluationPairs();
    } else {
        std::stringstream ss(pairsArg);
        std::string item;
        while (std::getline(ss, item, ',')) {
            const auto colon = item.find(':');
            if (colon == std::string::npos) {
                std::cerr << "--pairs expects a:b,c:d\n";
                return false;
            }
            m.pairs.emplace_back(item.substr(0, colon),
                                 item.substr(colon + 1));
        }
    }

    m.levels = EvaluationSweep::standardLevels();
    if (opts.hasOption("levels"))
        m.levels = parseList(opts.getString("levels", ""));
    if (m.levels.empty()) {
        std::cerr << "--levels expects a,b,...\n";
        return false;
    }
    m.rc = runConfigFrom(opts);
    return true;
}

int
cmdSweep(const CliOptions &opts)
{
    service::CampaignManifest manifest;
    if (!campaignFromOpts(opts, manifest))
        return 2;
    const auto &pairs = manifest.pairs;
    const auto &fLevels = manifest.levels;

    std::vector<InjectSpec> injects;
    if (!parseInjects(opts, injects))
        return 2;

    SweepCampaign campaign(MachineConfig::benchDefault(),
                           manifest.rc, pairs, fLevels);
    if (!injects.empty()) {
        campaign.setAttemptHook(
            [injects](const std::string &job, unsigned attempt) {
                for (const auto &is : injects) {
                    if (is.job == job && attempt <= is.maxAttempt)
                        provokeInjectedFault(is);
                }
            });
    }

    SupervisorConfig scfg;
    scfg.deadlineSeconds = opts.getDouble("deadline", 600.0);
    scfg.maxAttempts = unsigned(opts.getUint("retries", 3));
    scfg.backoffBaseSeconds = opts.getDouble("backoff", 0.25);
    scfg.jobSlots = unsigned(opts.getUint("jobs", 1));
    scfg.progress = &std::cerr;

    const bool resume = opts.hasOption("resume");
    const std::string journal = resume
        ? opts.getString("resume", "")
        : opts.getString("journal", "soefair_sweep.journal");

    CampaignResult agg = campaign.run(scfg, journal, resume);

    const std::string out = opts.getString("out", "");
    if (out.empty()) {
        writeCampaignCsv(std::cout, agg);
    } else {
        std::ofstream os(out);
        if (!os) {
            std::cerr << "cannot write '" << out << "'\n";
            return 1;
        }
        writeCampaignCsv(os, agg);
        std::cout << "wrote " << agg.results.size() << " pairs to "
                  << out << "\n";
    }

    if (!agg.complete()) {
        std::cerr << "[sweep] PARTIAL results: " << agg.missing.size()
                  << " cell(s) missing (journal: " << journal
                  << "; finish with `sweep --resume " << journal
                  << "`)\n";
        for (const auto &m : agg.missing)
            std::cerr << "[sweep]   " << m.marker() << "\n";
    }
    return agg.exitCode();
}

/** Graceful-shutdown flag set by SIGTERM/SIGINT in serve/drain. */
volatile std::sig_atomic_t gStopRequested = 0;

extern "C" void
onStopSignal(int)
{
    gStopRequested = 1;
}

bool
serviceConfigFrom(const CliOptions &opts, service::ServiceConfig &cfg)
{
    cfg.queueDir = opts.getString("queue", "");
    if (cfg.queueDir.empty()) {
        std::cerr << "--queue DIR is required\n";
        return false;
    }
    cfg.cacheDir = opts.getString("cache", "");
    cfg.workerName = opts.getString("worker", "worker");
    cfg.leaseSeconds = opts.getDouble("lease", 60.0);
    cfg.heartbeatSeconds = opts.getDouble("heartbeat", 0.0);
    cfg.deadlineSeconds = opts.getDouble("deadline", 600.0);
    cfg.maxAttempts = unsigned(opts.getUint("retries", 3));
    cfg.backoffBaseSeconds = opts.getDouble("backoff", 0.25);
    cfg.slots = unsigned(opts.getUint("jobs", 1));
    cfg.capacity = unsigned(opts.getUint("capacity", 0));
    cfg.pollSeconds = opts.getDouble("poll", 0.5);
    cfg.progress = &std::cerr;
    cfg.stopFlag = &gStopRequested;
    return true;
}

int
cmdEnqueue(const CliOptions &opts)
{
    service::CampaignManifest manifest;
    service::ServiceConfig cfg;
    if (!campaignFromOpts(opts, manifest) ||
        !serviceConfigFrom(opts, cfg))
        return 2;

    service::SweepService svc(cfg);
    const auto stats = svc.enqueueCampaign(manifest);
    std::cout << "enqueued " << stats.added << " job(s), "
              << stats.duplicates << " already queued, "
              << stats.rejected << " rejected\n";
    return stats.rejected ? service::exitQueueSaturated : 0;
}

int
runWorker(const CliOptions &opts, service::SweepService &svc,
          service::WorkerStats &stats)
{
    std::vector<InjectSpec> injects;
    if (!parseInjects(opts, injects))
        return 2;
    if (!injects.empty()) {
        svc.setAttemptHook(
            [injects](const std::string &job, unsigned attempt) {
                for (const auto &is : injects) {
                    if (is.job == job && attempt <= is.maxAttempt)
                        provokeInjectedFault(is);
                }
            });
    }
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);
    stats = svc.serve();
    return 0;
}

int
cmdServe(const CliOptions &opts)
{
    service::ServiceConfig cfg;
    if (!serviceConfigFrom(opts, cfg))
        return 2;
    service::SweepService svc(cfg);
    service::WorkerStats stats;
    return runWorker(opts, svc, stats);
}

int
cmdDrain(const CliOptions &opts)
{
    service::CampaignManifest manifest;
    service::ServiceConfig cfg;
    if (!campaignFromOpts(opts, manifest) ||
        !serviceConfigFrom(opts, cfg))
        return 2;

    // Resuming an existing queue: its manifest defines the campaign,
    // so `drain --queue DIR` alone finishes any interrupted campaign
    // regardless of which --pairs/--levels created it.
    if (service::JobQueue::exists(cfg.queueDir)) {
        try {
            manifest = service::loadManifest(cfg.queueDir);
        } catch (const CheckpointError &) {
            // Queue without a readable manifest: enqueueCampaign
            // rewrites it from the options (key-checked).
        }
    }

    service::SweepService svc(cfg);
    const auto eq = svc.enqueueCampaign(manifest);

    service::WorkerStats stats;
    int rc = runWorker(opts, svc, stats);
    if (rc != 0)
        return rc;

    service::SweepService agger(cfg);
    CampaignResult agg = agger.aggregate();

    const std::string out = opts.getString("out", "");
    if (out.empty()) {
        writeCampaignCsv(std::cout, agg);
    } else {
        std::ofstream os(out);
        if (!os) {
            std::cerr << "cannot write '" << out << "'\n";
            return 1;
        }
        writeCampaignCsv(os, agg);
        std::cout << "wrote " << agg.results.size() << " pairs to "
                  << out << "\n";
    }

    if (!agg.complete()) {
        std::cerr << "[drain] PARTIAL results: " << agg.missing.size()
                  << " cell(s) missing (queue: " << cfg.queueDir
                  << "; finish with `drain --queue " << cfg.queueDir
                  << "`)\n";
        for (const auto &m : agg.missing)
            std::cerr << "[drain]   " << m.marker() << "\n";
    }
    if (eq.rejected && agg.complete())
        return service::exitQueueSaturated;
    return agg.exitCode();
}

int
cmdAnalytic(const CliOptions &opts)
{
    const auto ipcs =
        parseList(opts.getString("ipc", "2.5,2.5"));
    const auto ipms =
        parseList(opts.getString("ipm", "15000,1000"));
    if (ipcs.size() != ipms.size() || ipcs.size() < 2) {
        std::cerr << "--ipc and --ipm need matching lists of >= 2 "
                  << "values\n";
        return 2;
    }
    std::vector<core::ThreadModel> threads;
    for (std::size_t i = 0; i < ipcs.size(); ++i) {
        threads.push_back(
            core::ThreadModel::fromIpcNoMiss(ipcs[i], ipms[i]));
    }
    core::AnalyticSoe m(threads,
                        {opts.getDouble("misslat", 300.0),
                         opts.getDouble("swlat", 25.0)});

    std::vector<double> fs = {0.0, 0.25, 0.5, 1.0};
    if (opts.hasOption("F"))
        fs = {opts.getDouble("F", 0.5)};

    TextTable t({"F", "fairness", "throughput", "speedup/ST",
                 "quotas..."});
    for (double f : fs) {
        auto q = m.quotasForFairness(f);
        std::string quotas;
        for (double v : q)
            quotas += TextTable::num(v, 0) + " ";
        t.addRow({f == 0 ? "0" : TextTable::num(f, 3),
                  TextTable::num(m.fairness(q), 3),
                  TextTable::num(m.throughput(q), 3),
                  TextTable::num(m.speedupOverSingleThread(q), 3),
                  quotas});
    }
    t.print(std::cout);
    return 0;
}

int
cmdFaults(const CliOptions &opts)
{
    const std::string which = opts.positional().size() > 1
        ? opts.positional()[1]
        : "all";
    const std::uint64_t seed = opts.getUint("seed", 1);
    const std::string dir = opts.getString("dir", ".");

    std::vector<soefair::sim::FaultClass> faults;
    if (which == "all") {
        faults = soefair::sim::allFaultClasses();
    } else {
        soefair::sim::FaultClass f;
        if (!soefair::sim::faultByName(which, f)) {
            std::cerr << "unknown fault scenario '" << which
                      << "'; known:";
            for (auto k : soefair::sim::allFaultClasses())
                std::cerr << " " << soefair::sim::faultName(k);
            std::cerr << "\n";
            return 2;
        }
        faults = {f};
    }

    if (opts.hasFlag("raw")) {
        if (faults.size() != 1) {
            std::cerr << "--raw needs exactly one scenario\n";
            return 2;
        }
        // The typed SimError escapes to main(), which maps it to
        // the class's exit code; completion means exit 0.
        soefair::sim::provokeFault(faults[0], seed, dir);
        return 0;
    }

    TextTable t({"scenario", "expected exit", "result", "detail"});
    unsigned failed = 0;
    for (auto f : faults) {
        auto rep = soefair::sim::runFaultScenario(f, seed, dir);
        if (!rep.passed)
            ++failed;
        // Keep the table single-line per scenario.
        std::string detail = rep.detail;
        for (char &ch : detail) {
            if (ch == '\n')
                ch = ' ';
        }
        if (detail.size() > 60)
            detail = detail.substr(0, 57) + "...";
        t.addRow({rep.scenario,
                  std::to_string(soefair::sim::expectedExitCode(f)),
                  rep.passed ? "pass" : "FAIL", detail});
    }
    t.print(std::cout);
    std::cout << (faults.size() - failed) << "/" << faults.size()
              << " scenarios passed (seed " << seed << ")\n";
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    // `--help`/`-h` anywhere renders the verb registry (before
    // option parsing, so it never consumes a value).
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg != "--help" && arg != "-h")
            continue;
        if (const CliVerb *verb = findCliVerb(argv[1]))
            printCliVerbHelp(std::cout, *verb);
        else
            printCliHelp(std::cout);
        return 0;
    }

    CliOptions opts(argc - 1, argv + 1, cliFlagNames());
    if (opts.positional().empty())
        return usage();
    // Every option must be one the verb registers: a misspelt
    // option is a usage error, never a silently applied default.
    if (const CliVerb *verb = findCliVerb(opts.positional()[0])) {
        if (checkCliOptions(*verb, opts, std::cerr) != 0)
            return 2;
    }

    // The failure-to-exit-code mapping lives in one shared place
    // (harness::runWithExitCodeMapping) so tests can round-trip
    // every SimError class through exactly the code path a
    // scripted caller observes.
    return harness::runWithExitCodeMapping([&]() -> int {
        const std::string &cmd = opts.positional()[0];
        if (cmd == "help") {
            if (opts.positional().size() > 1) {
                const CliVerb *verb =
                    findCliVerb(opts.positional()[1]);
                if (!verb) {
                    std::cerr << "unknown command '"
                              << opts.positional()[1] << "'\n";
                    return 2;
                }
                printCliVerbHelp(std::cout, *verb);
            } else {
                printCliHelp(std::cout);
            }
            return 0;
        }
        if (cmd == "list")
            return cmdList();
        if (cmd == "machine")
            return cmdMachine();
        if (cmd == "run-st")
            return cmdRunSt(opts);
        if (cmd == "run-soe")
            return cmdRunSoe(opts);
        if (cmd == "record-trace")
            return cmdRecordTrace(opts);
        if (cmd == "sweep")
            return cmdSweep(opts);
        if (cmd == "enqueue")
            return cmdEnqueue(opts);
        if (cmd == "serve")
            return cmdServe(opts);
        if (cmd == "drain")
            return cmdDrain(opts);
        if (cmd == "analytic")
            return cmdAnalytic(opts);
        if (cmd == "faults")
            return cmdFaults(opts);
        std::cerr << "unknown command '" << cmd << "'\n";
        return usage();
    });
}
