#include "harness/cli_verbs.hh"

#include <algorithm>
#include <iostream>

#include "sim/errors.hh"
#include "sim/invariant.hh"

namespace soefair
{
namespace harness
{

namespace
{

/** Run options shared by the verbs that simulate. */
std::vector<CliVerbOption>
runOptions()
{
    return {
        {"--instrs N", "measured instructions per thread"},
        {"--warmup N", "functional warmup instructions per thread"},
        {"--scale X",
         "scale all run lengths (replaces SOEFAIR_SCALE)"},
        {"--no-fastforward",
         "tick every stall cycle instead of jumping quiescent runs"},
    };
}

template <typename T>
std::vector<T>
concat(std::vector<T> a, const std::vector<T> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

/** runOptions() plus --seed, for the verbs that run benchmarks at a
 *  chosen seed. A sweep has none: its seeds follow pairSeed(). */
std::vector<CliVerbOption>
seededRunOptions()
{
    return concat({{"--seed N", "master seed base (default 1)"}},
                  runOptions());
}

/** Bare name of an option: "journal" for "--journal F". */
std::string
cliOptionName(const CliVerbOption &opt)
{
    return opt.name.substr(2, opt.name.find(' ') - 2);
}

std::vector<CliVerb>
buildVerbs()
{
    const std::vector<CliExitCode> exitBasic = {
        {0, "ok"}, {2, "usage"}, {1, "fatal"}, {3, "internal panic"}};
    const std::vector<CliExitCode> exitSim = {
        {0, "ok"}, {1, "fatal"}, {2, "usage"}, {3, "panic"},
        {10, "input"}, {11, "estimator"}, {12, "watchdog"}};
    const std::vector<CliExitCode> exitCampaign = {
        {0, "complete"}, {20, "partial (MISSING cells)"},
        {21, "no pair has a result row"}, {2, "usage"}, {1, "fatal"},
        {10, "input"}, {13, "journal unreadable or corrupt"}};

    std::vector<CliVerb> verbs;

    verbs.push_back({"help", "help [verb]",
                     "print this overview, or one verb's options "
                     "and exit codes",
                     {},
                     {{0, "ok"}, {2, "unknown verb"}}});

    verbs.push_back({"list", "list",
                     "list the available benchmarks",
                     {},
                     exitBasic});

    verbs.push_back({"machine", "machine",
                     "print the machine that run-st, run-soe and "
                     "sweep simulate (Table 3 with a shorter delta "
                     "and quota)",
                     {},
                     exitBasic});

    verbs.push_back(
        {"run-st", "run-st <bench> [options]",
         "run one benchmark alone and print its metrics",
         concat(seededRunOptions(),
                {{"--stats", "dump the statistics tree to stderr"},
                 {"--retire-trace F",
                  "write a text retirement trace to file F"}}),
         exitSim});

    verbs.push_back(
        {"run-soe", "run-soe <benchA> <benchB>... [options]",
         "run 2+ benchmarks under SOE",
         concat(seededRunOptions(),
                {{"--policy P",
                  "miss-only | fairness | timeshare | quota"},
                 {"--F X", "target fairness (fairness policy, 0.5)"},
                 {"--tsquota N", "cycle quantum for timeshare (2000)"},
                 {"--iquota N",
                  "instruction quota for the quota policy (2000)"},
                 {"--measured",
                  "use measured Miss_lat (Section 6 extension)"},
                 {"--l1-switch",
                  "also switch on L1 misses (Section 6 extension)"},
                 {"--windows", "print the per-delta-window table"},
                 {"--stats", "dump the statistics tree to stderr"},
                 {"--retire-trace F",
                  "write a text retirement trace to file F"}}),
         exitSim});

    verbs.push_back(
        {"sweep", "sweep [options]",
         "run benchmark pairs across F levels under the "
         "crash-isolated supervisor and emit CSV",
         concat(runOptions(),
                {{"--pairs a:b,c:d",
                  "benchmark pairs (default: the paper's 16)"},
                 {"--levels a,b,...",
                  "enforcement levels (default 0,0.25,0.5,1)"},
                 {"--jobs N", "parallel forked job slots (default 1)"},
                 {"--deadline S",
                  "per-attempt wall-clock deadline in seconds "
                  "(default 600; 0 means no deadline)"},
                 {"--journal F",
                  "write-ahead journal path (default "
                  "soefair_sweep.journal)"},
                 {"--resume F",
                  "resume from an existing journal"},
                 {"--out F", "CSV output path (default stdout)"}}),
         exitCampaign});

    verbs.push_back(
        {"analytic", "analytic [options]",
         "evaluate the analytical model",
         {{"--ipc a,b[,c...]",
           "per-thread IPC_no_miss (default 2.5,2.5)"},
          {"--ipm a,b[,c...]",
           "per-thread instructions per miss (15000,1000)"},
          {"--F X", "target fairness (sweeps 0,1/4,1/2,1 if absent)"},
          {"--misslat N", "model Miss_lat (300)"},
          {"--swlat N", "model Switch_lat (25)"}},
         concat(exitBasic, {{10, "input"}})});

    return verbs;
}

} // namespace

const std::vector<CliVerb> &
cliVerbs()
{
    static const std::vector<CliVerb> verbs = buildVerbs();
    return verbs;
}

const CliVerb *
findCliVerb(const std::string &name)
{
    for (const auto &verb : cliVerbs()) {
        if (verb.name == name)
            return &verb;
    }
    return nullptr;
}

std::vector<std::string>
cliFlagNames()
{
    std::vector<std::string> flags;
    for (const auto &verb : cliVerbs()) {
        for (const auto &opt : verb.options) {
            const std::string name = cliOptionName(opt);
            if (opt.name.find(' ') == std::string::npos &&
                std::find(flags.begin(), flags.end(), name) ==
                    flags.end())
                flags.push_back(name);
        }
    }
    return flags;
}

int
checkCliOptions(const CliVerb &verb, const CliOptions &opts,
                std::ostream &err)
{
    std::vector<std::string> known;
    for (const auto &opt : verb.options)
        known.push_back(cliOptionName(opt));
    const auto unknown = opts.unknownOptions(known);
    for (const auto &name : unknown) {
        err << "unknown option --" << name << " for '" << verb.name
            << "' (see `soefair_cli help " << verb.name << "`)\n";
    }
    return unknown.empty() ? 0 : 2;
}

std::string
exitCodesText(const CliVerb &verb)
{
    std::string text;
    for (const auto &ec : verb.exitCodes) {
        if (!text.empty())
            text += "; ";
        text += std::to_string(ec.code) + " " + ec.meaning;
    }
    return text;
}

void
printCliHelp(std::ostream &os)
{
    os << "usage: soefair_cli <command> [args] [options]\n\n"
       << "commands:\n";
    for (const auto &verb : cliVerbs())
        os << "  " << verb.name << "\n      " << verb.description
           << "\n";
    os << "\nrun `soefair_cli help <command>` for options and exit "
          "codes;\nsee docs/robustness.md for the failure taxonomy\n";
}

void
printCliVerbHelp(std::ostream &os, const CliVerb &verb)
{
    os << "usage: soefair_cli " << verb.synopsis << "\n\n"
       << verb.description << "\n";
    if (!verb.options.empty()) {
        os << "\noptions:\n";
        for (const auto &opt : verb.options)
            os << "  " << opt.name << "\n      " << opt.description
               << "\n";
    }
    os << "\nexit codes: " << exitCodesText(verb) << "\n";
}

int
runWithExitCodeMapping(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const SimError &e) {
        // Typed, defined failure: each class has its own exit code
        // (10..13; see sim/errors.hh and docs/robustness.md). The
        // message was printed when the error was raised.
        return e.exitCode();
    } catch (const AuditError &e) {
        std::cerr << "audit failure: " << e.what() << "\n";
        return 3;
    } catch (const PanicError &) {
        // Internal simulator bug (message already printed by
        // panic()), not a defined failure.
        return 3;
    } catch (const FatalError &) {
        // fatal() already printed the message.
        return 1;
    }
}

int
runCliVerb(const CliVerb &verb, const std::function<int()> &body,
           std::ostream &err)
{
    const int code = runWithExitCodeMapping(body);
    for (const auto &ec : verb.exitCodes) {
        if (ec.code == code)
            return code;
    }
    if (code != 3) {
        err << "internal error: '" << verb.name << "' exited " << code
            << ", which its registry entry does not list ("
            << exitCodesText(verb) << ")\n";
    }
    return 3;
}

} // namespace harness
} // namespace soefair
