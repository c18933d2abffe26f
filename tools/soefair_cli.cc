/**
 * @file
 * The soefair command-line driver.
 *
 *   soefair_cli <command> [args] [options]
 *
 * Every verb with its options and exit codes is declared once, in
 * the registry in harness/cli_verbs.cc; `soefair_cli help [verb]`
 * renders it. docs/robustness.md describes the failure taxonomy.
 */

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/analytic.hh"
#include "core/metrics.hh"
#include "harness/cli.hh"
#include "harness/cli_verbs.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "sim/errors.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"
#include "soe/policies.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

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
    if (opts.hasOption("scale")) {
        const double scale =
            parseRunScale(opts.getString("scale", ""), "--scale");
        // --scale replaces SOEFAIR_SCALE: it scales the built-in run
        // lengths, not the environment's already scaled ones.
        const bool fastForward = rc.fastForward;
        rc = RunConfig{}.scaled(scale);
        rc.fastForward = fastForward;
    }
    rc.measureInstrs = opts.getUint("instrs", rc.measureInstrs);
    if (rc.measureInstrs == 0)
        raiseError<InputError>("--instrs 0 leaves an empty "
                               "measurement window");
    rc.warmupInstrs = opts.getUint("warmup", rc.warmupInstrs);
    if (opts.hasFlag("stats"))
        rc.statsDump = &std::cerr;
    rc.retireTracePath = opts.getString("retire-trace", "");
    if (opts.hasFlag("no-fastforward"))
        rc.fastForward = false;
    return rc;
}

/** Parse option `name` as a comma-separated list of finite
 *  numbers; nullopt after printing a usage error. */
std::optional<std::vector<double>>
parseList(const CliOptions &opts, const std::string &name,
          const std::string &def)
{
    std::vector<double> vals;
    std::stringstream ss(opts.getString(name, def));
    std::string item;
    while (std::getline(ss, item, ',')) {
        char *end = nullptr;
        const double v = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || !std::isfinite(v)) {
            std::cerr << "--" << name << " expects finite numbers "
                      << "a,b,..., got '" << item << "'\n";
            return std::nullopt;
        }
        vals.push_back(v);
    }
    return vals;
}

int
cmdHelp(const CliOptions &opts)
{
    if (opts.positional().size() > 1) {
        const CliVerb *verb = findCliVerb(opts.positional()[1]);
        if (!verb) {
            std::cerr << "unknown command '" << opts.positional()[1]
                      << "'\n";
            return 2;
        }
        printCliVerbHelp(std::cout, *verb);
    } else {
        printCliHelp(std::cout);
    }
    return 0;
}

int
cmdList(const CliOptions &)
{
    std::cout << "Available benchmarks (SPEC CPU2000 stand-ins):\n";
    for (const auto &name : workload::spec::allNames())
        std::cout << "  " << name << "\n";
    return 0;
}

int
cmdMachine(const CliOptions &)
{
    // The machine run-st, run-soe and sweep simulate.
    MachineConfig::benchDefault().print(std::cout);
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

    // Resolve every benchmark name before the first reference run,
    // so a bad name costs no simulation.
    std::vector<ThreadSpec> specs;
    for (unsigned i = 0; i < n; ++i)
        specs.push_back(ThreadSpec::benchmark(pos[1 + i], seed + i));

    std::vector<StRunResult> sts;
    for (unsigned i = 0; i < n; ++i) {
        std::cerr << "[cli] reference run: " << pos[1 + i] << "\n";
        // Reference runs never dump stats or traces.
        RunConfig refRc = rc;
        refRc.statsDump = nullptr;
        refRc.retireTracePath.clear();
        sts.push_back(runner.runSingleThread(specs[i], refRc));
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

/** Parse sweep's campaign selection (--pairs, --levels, run
 *  options); nullopt after printing a usage error. */
std::optional<SweepCampaign>
campaignFromOpts(const CliOptions &opts)
{
    std::vector<std::pair<std::string, std::string>> pairs;
    const std::string pairsArg = opts.getString("pairs", "");
    if (pairsArg.empty()) {
        pairs = workload::spec::evaluationPairs();
    } else {
        std::stringstream ss(pairsArg);
        std::string item;
        while (std::getline(ss, item, ',')) {
            const auto colon = item.find(':');
            if (colon == std::string::npos) {
                std::cerr << "--pairs expects a:b,c:d\n";
                return std::nullopt;
            }
            pairs.emplace_back(item.substr(0, colon),
                               item.substr(colon + 1));
        }
    }
    const std::vector<std::string> known = workload::spec::allNames();
    for (const auto &[a, b] : pairs) {
        for (const std::string &name : {a, b}) {
            if (std::find(known.begin(), known.end(), name) ==
                known.end()) {
                std::cerr << "--pairs: unknown benchmark '" << name
                          << "' (see 'soefair_cli list')\n";
                return std::nullopt;
            }
        }
    }

    std::vector<double> levels = EvaluationSweep::standardLevels();
    if (opts.hasOption("levels")) {
        auto parsed = parseList(opts, "levels", "");
        if (!parsed)
            return std::nullopt;
        levels = std::move(*parsed);
    }
    if (levels.empty()) {
        std::cerr << "--levels expects a,b,...\n";
        return std::nullopt;
    }
    for (double f : levels) {
        if (f < 0.0 || f > 1.0) {
            std::cerr << "--levels: every level must lie in [0, 1], "
                      << "got '" << opts.getString("levels", "")
                      << "'\n";
            return std::nullopt;
        }
    }
    return std::optional<SweepCampaign>(
        std::in_place, MachineConfig::benchDefault(),
        runConfigFrom(opts), std::move(pairs), std::move(levels));
}

int
cmdSweep(const CliOptions &opts)
{
    std::optional<SweepCampaign> campaign = campaignFromOpts(opts);
    if (!campaign)
        return 2;
    // A pair or level listed twice would run its cells twice and
    // journal two `done` records, which a later --resume refuses.
    if (campaign->jobIds().size() != campaign->jobs().size()) {
        std::cerr << "--pairs/--levels name a sweep cell more than "
                  << "once\n";
        return 2;
    }

    SupervisorConfig scfg;
    scfg.deadlineSeconds = opts.getDouble("deadline", 600.0);
    if (scfg.deadlineSeconds < 0.0) {
        std::cerr << "--deadline must be >= 0 (0 means no deadline), "
                  << "got " << scfg.deadlineSeconds << "\n";
        return 2;
    }
    // A count above UINT_MAX would wrap (2^32 slots -> 0).
    const std::uint64_t slots = opts.getUint("jobs", 1);
    if (slots == 0 || slots > UINT_MAX) {
        std::cerr << "--jobs must lie in [1, " << UINT_MAX << "], got "
                  << slots << "\n";
        return 2;
    }
    scfg.jobSlots = unsigned(slots);
    scfg.progress = &std::cerr;

    // Open the CSV output before the campaign, so an unwritable
    // path fails before any job runs.
    const std::string out = opts.getString("out", "");
    std::ofstream outFile;
    if (!out.empty()) {
        outFile.open(out);
        if (!outFile) {
            std::cerr << "cannot write '" << out << "'\n";
            return 1;
        }
    }

    const bool resume = opts.hasOption("resume");
    const std::string journal = resume
        ? opts.getString("resume", "")
        : opts.getString("journal", "soefair_sweep.journal");

    CampaignResult agg = campaign->run(scfg, journal, resume);

    if (out.empty()) {
        writeCampaignCsv(std::cout, agg);
    } else {
        writeCampaignCsv(outFile, agg);
        std::cout << "wrote " << agg.results.size() << " pairs to "
                  << out << "\n";
    }

    agg.reportMissing(std::cerr, journal);
    return agg.exitCode();
}

int
cmdAnalytic(const CliOptions &opts)
{
    const auto ipcList = parseList(opts, "ipc", "2.5,2.5");
    const auto ipmList = parseList(opts, "ipm", "15000,1000");
    if (!ipcList || !ipmList)
        return 2;
    const std::vector<double> &ipcs = *ipcList;
    const std::vector<double> &ipms = *ipmList;
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

/** Each registered verb's body, in cliVerbs() order; main() checks
 *  the two name lists against each other before dispatching. */
const std::pair<const char *, int (*)(const CliOptions &)> verbBodies[] = {
    {"help", cmdHelp},        {"list", cmdList},
    {"machine", cmdMachine},  {"run-st", cmdRunSt},
    {"run-soe", cmdRunSoe},   {"sweep", cmdSweep},
    {"analytic", cmdAnalytic},
};

} // namespace

int
main(int argc, char **argv)
{
    const auto &verbs = cliVerbs();
    if (!std::equal(std::begin(verbBodies), std::end(verbBodies),
                    verbs.begin(), verbs.end(),
                    [](const auto &body, const CliVerb &verb) {
                        return verb.name == body.first;
                    })) {
        std::cerr << "internal error: the verb bodies and the verb "
                     "registry name different verbs\n";
        return 3;
    }
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

    // An option with its value missing is a usage error, like an
    // unknown one; fatal() has printed the message.
    std::optional<CliOptions> parsed;
    try {
        parsed.emplace(argc - 1, argv + 1, cliFlagNames());
    } catch (const FatalError &) {
        return 2;
    }
    const CliOptions &opts = *parsed;
    if (opts.positional().empty())
        return usage();
    // Every option must be one the verb registers: a misspelt
    // option is a usage error, never a silently applied default.
    const CliVerb *verb = findCliVerb(opts.positional()[0]);
    if (!verb) {
        std::cerr << "unknown command '" << opts.positional()[0]
                  << "'\n";
        return usage();
    }
    if (checkCliOptions(*verb, opts, std::cerr) != 0)
        return 2;

    // The failure-to-exit-code mapping and the check of the code
    // against the verb's registry entry live in one shared place
    // (harness::runCliVerb), so tests can round-trip every SimError
    // class through exactly the code path a scripted caller observes.
    const auto body = verbBodies[verb - verbs.data()].second;
    return runCliVerb(*verb, [&] { return body(opts); }, std::cerr);
}
