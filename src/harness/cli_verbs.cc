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

/** Common option bundles, spliced into the verbs that take them. */

std::vector<CliVerbOption>
runOptions()
{
    return {
        {"--seed N", "master seed base (default 1)"},
        {"--instrs N", "measured instructions per thread"},
        {"--warmup N", "functional warmup instructions per thread"},
        {"--scale X", "scale all run lengths (like SOEFAIR_SCALE)"},
        {"--no-fastforward",
         "tick every stall cycle instead of jumping quiescent runs"},
    };
}

std::vector<CliVerbOption>
campaignOptions()
{
    return {
        {"--pairs a:b,c:d",
         "benchmark pairs (default: the paper's 16)"},
        {"--levels a,b,...",
         "enforcement levels (default 0,0.25,0.5,1)"},
    };
}

std::vector<CliVerbOption>
supervisorOptions()
{
    return {
        {"--jobs N", "parallel forked job slots (default 1)"},
        {"--deadline S",
         "per-attempt wall-clock deadline in seconds (default 600)"},
        {"--retries N",
         "max attempts per transiently-failing job (default 3)"},
        {"--backoff S", "base retry backoff in seconds (0.25)"},
        {"--inject SPEC",
         "test hook: job@action[@maxAttempt] provokes hang | kill | "
         "input | watchdog in the job's child; repeatable"},
    };
}

std::vector<CliVerbOption>
concat(std::vector<CliVerbOption> a,
       const std::vector<CliVerbOption> &b)
{
    a.insert(a.end(), b.begin(), b.end());
    return a;
}

const char *exitBasic = "0 ok; 2 usage; 1 fatal; 3 internal panic";
const char *exitSim =
    "0 ok; 1 fatal; 2 usage; 3 panic; 10 input; 11 estimator; "
    "12 watchdog; 13 checkpoint";
const char *exitCampaign =
    "0 complete; 20 partial (MISSING cells); 21 nothing completed; "
    "2 usage; 1 fatal";

/** Bare name of an option: "queue" for "--queue DIR". */
std::string
cliOptionName(const CliVerbOption &opt)
{
    return opt.name.substr(2, opt.name.find(' ') - 2);
}

std::vector<CliVerb>
buildVerbs()
{
    std::vector<CliVerb> verbs;

    verbs.push_back({"help", "help [verb]",
                     "print this overview, or one verb's options "
                     "and exit codes",
                     {},
                     "0 ok; 2 unknown verb"});

    verbs.push_back({"list", "list",
                     "list the available benchmarks",
                     {},
                     exitBasic});

    verbs.push_back({"machine", "machine",
                     "print the simulated machine (Table 3)",
                     {},
                     exitBasic});

    verbs.push_back(
        {"run-st", "run-st <bench> [options]",
         "run one benchmark alone and print its metrics",
         concat(runOptions(),
                {{"--stats", "dump the statistics tree to stderr"},
                 {"--retire-trace F",
                  "write a text retirement trace to file F"}}),
         exitSim});

    verbs.push_back(
        {"run-soe", "run-soe <benchA> <benchB>... [options]",
         "run 2+ benchmarks under SOE; trace:<path> replays a "
         "recorded trace",
         concat(runOptions(),
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
        {"record-trace", "record-trace <bench> [options]",
         "record a workload to a trace file",
         concat(runOptions(),
                {{"--out F", "output path (default <bench>.soetrace)"}}),
         exitSim});

    verbs.push_back(
        {"sweep", "sweep [options]",
         "run benchmark pairs across F levels under the "
         "crash-isolated supervisor and emit CSV",
         concat(concat(concat(runOptions(), campaignOptions()),
                       supervisorOptions()),
                {{"--journal F",
                  "write-ahead journal path (default "
                  "soefair_sweep.journal)"},
                 {"--resume F",
                  "resume from an existing journal"},
                 {"--out F", "CSV output path (default stdout)"}}),
         exitCampaign});

    const std::vector<CliVerbOption> serviceOpts = {
        {"--queue DIR", "job queue directory (required)"},
        {"--cache DIR",
         "content-addressed result cache (empty disables)"},
        {"--capacity N", "queue admission bound, 0 = unbounded"},
        {"--worker NAME", "worker name recorded in lease records"},
        {"--lease S", "lease duration in seconds (default 60)"},
        {"--heartbeat S", "lease renewal interval (default lease/3)"},
        {"--poll S", "idle poll interval (default 0.5)"},
    };

    verbs.push_back(
        {"enqueue", "enqueue --queue DIR [options]",
         "durably enqueue a sweep campaign into a job queue "
         "directory (idempotent)",
         concat(concat(concat(runOptions(), campaignOptions()),
                       supervisorOptions()),
                serviceOpts),
         "0 ok; 22 admission control rejected jobs (queue at "
         "capacity); 2 usage; 13 checkpoint"});

    verbs.push_back(
        {"serve", "serve --queue DIR [options]",
         "worker loop: drain the queue under lease-based claiming, "
         "serving from the verified result cache when possible; "
         "SIGTERM is a graceful stop",
         concat(supervisorOptions(), serviceOpts),
         "0 drained or stopped gracefully; 2 usage; 13 checkpoint"});

    verbs.push_back(
        {"drain", "drain --queue DIR [options]",
         "enqueue (if needed) + serve + aggregate: one-command "
         "service campaign emitting the same CSV as sweep",
         concat(concat(concat(runOptions(), campaignOptions()),
                       supervisorOptions()),
                concat(serviceOpts,
                       {{"--out F", "CSV output path (stdout)"}})),
         "0 complete; 20 partial; 21 nothing completed; 22 complete "
         "but jobs were rejected at enqueue; 2 usage; 13 checkpoint"});

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
         exitBasic});

    verbs.push_back(
        {"faults", "faults [scenario|all] [options]",
         "fault-injection harness: run one scenario (or all) and "
         "report pass/fail",
         {{"--seed N", "scenario seed (default 1)"},
          {"--dir D", "scratch directory for fault files"},
          {"--raw",
           "run the bare faulting path so the process exits with "
           "the SimError's code"}},
         "0 all passed; 1 scenario failed; 2 usage; with --raw, the "
         "provoked class's exit code (10..13)"});

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
    os << "\nexit codes: " << verb.exitCodes << "\n";
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

} // namespace harness
} // namespace soefair
