/**
 * @file
 * CLI help-coverage tests: every verb the CLI dispatches must be in
 * the registry with a synopsis, a description and an exit-code
 * contract, and the rendered help must actually show them. Adding a
 * verb without documenting it is a test failure, not a silent gap;
 * an option a verb does not register is a usage error (exit 2).
 * The last tests run the built soefair_cli and check that bad
 * input fails with its documented code before any work starts, and
 * that the end-of-sweep message matches the campaign's exit code.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli_verbs.hh"
#include "harness/env.hh"
#include "harness/machine_config.hh"
#include "harness/sweep.hh"
#include "sim/errors.hh"

using namespace soefair::harness;
using soefair::CheckpointError;
using soefair::InputError;
using soefair::raiseError;

namespace
{

/** The usage check soefair_cli's main() applies to `args` (argv
 *  without the program name): 0 when accepted, 2 when not. */
int
usageCheck(const std::vector<const char *> &args)
{
    CliOptions opts(int(args.size()), args.data(), cliFlagNames());
    const CliVerb *verb = findCliVerb(opts.positional().at(0));
    EXPECT_NE(verb, nullptr) << args.at(0);
    std::ostringstream err;
    return verb ? checkCliOptions(*verb, opts, err) : -1;
}

/** Exit code of the built soefair_cli run with `args`; -1 when it
 *  did not exit normally. Stdout is discarded, and so is stderr
 *  unless `err_path` names a file to write it to. */
int
cliExit(const std::string &args, const std::string &err_path = "")
{
    const std::string cmd = std::string(SOEFAIR_CLI) + " " + args +
        " >/dev/null 2>" +
        (err_path.empty() ? std::string("&1") : err_path);
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Contents of the file at `path`; empty if it cannot be read. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Stdout of the built soefair_cli run with `args`, under env(1)
 *  with `env_args` ("NAME=value ..." or "-u NAME"); it goes through
 *  the file `out_path`. Empty when the CLI fails. */
std::string
cliStdout(const std::string &env_args, const std::string &args,
          const std::string &out_path)
{
    const std::string cmd = "env " + env_args + " " +
        std::string(SOEFAIR_CLI) + " " + args + " >" + out_path +
        " 2>/dev/null";
    return std::system(cmd.c_str()) == 0 ? readFile(out_path) : "";
}

/** A per-process scratch directory, removed at exit. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        const std::string tmp = env::getOr("TMPDIR", "");
        path = (tmp.empty() ? std::string("/tmp") : tmp) +
               "/soefair_cli_verbs_" + std::to_string(::getpid());
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }

    std::string path;
};

} // namespace

TEST(CliVerbs, RegistryCoversEveryDispatchedVerb)
{
    const char *expected[] = {
        "help", "list", "machine", "run-st", "run-soe", "sweep",
        "analytic",
    };
    std::set<std::string> names;
    for (const auto &verb : cliVerbs())
        names.insert(verb.name);
    for (const char *want : expected)
        EXPECT_EQ(names.count(want), 1u) << "verb: " << want;
    // And nothing registered twice.
    EXPECT_EQ(names.size(), cliVerbs().size());
}

TEST(CliVerbs, EveryVerbDocumentsItselfCompletely)
{
    ASSERT_FALSE(cliVerbs().empty());
    for (const auto &verb : cliVerbs()) {
        EXPECT_FALSE(verb.name.empty());
        EXPECT_FALSE(verb.description.empty())
            << "verb: " << verb.name;
        EXPECT_FALSE(verb.exitCodes.empty())
            << "verb: " << verb.name;
        // The synopsis leads with the verb itself.
        EXPECT_EQ(verb.synopsis.rfind(verb.name, 0), 0u)
            << "verb: " << verb.name
            << " synopsis: " << verb.synopsis;
        for (const auto &opt : verb.options) {
            EXPECT_EQ(opt.name.rfind("--", 0), 0u)
                << verb.name << " option: " << opt.name;
            EXPECT_FALSE(opt.description.empty())
                << verb.name << " option: " << opt.name;
        }
    }
}

TEST(CliVerbs, FindCliVerbResolvesKnownAndRejectsUnknown)
{
    EXPECT_NE(findCliVerb("sweep"), nullptr);
    EXPECT_NE(findCliVerb("analytic"), nullptr);
    EXPECT_EQ(findCliVerb("no-such-verb"), nullptr);
    EXPECT_EQ(findCliVerb("enqueue"), nullptr);
    EXPECT_EQ(findCliVerb("faults"), nullptr);
    EXPECT_EQ(findCliVerb(""), nullptr);
}

TEST(CliVerbs, OverviewHelpListsEveryVerb)
{
    std::ostringstream os;
    printCliHelp(os);
    const std::string help = os.str();
    for (const auto &verb : cliVerbs()) {
        EXPECT_NE(help.find("  " + verb.name + "\n"),
                  std::string::npos)
            << "verb: " << verb.name;
        EXPECT_NE(help.find(verb.description), std::string::npos)
            << "verb: " << verb.name;
    }
}

TEST(CliVerbs, VerbHelpShowsEveryOptionAndTheExitCodes)
{
    for (const auto &verb : cliVerbs()) {
        std::ostringstream os;
        printCliVerbHelp(os, verb);
        const std::string help = os.str();
        EXPECT_NE(help.find(verb.synopsis), std::string::npos)
            << "verb: " << verb.name;
        EXPECT_NE(help.find("exit codes: " + exitCodesText(verb)),
                  std::string::npos)
            << "verb: " << verb.name;
        for (const auto &opt : verb.options) {
            EXPECT_NE(help.find(opt.name), std::string::npos)
                << verb.name << " option: " << opt.name;
        }
    }
}

TEST(CliVerbs, ExitCodeLinesRenderByteForByte)
{
    // The exit-code lines of `help <verb>`, byte for byte.
    const std::pair<const char *, const char *> lines[] = {
        {"help", "0 ok; 2 unknown verb"},
        {"list", "0 ok; 2 usage; 1 fatal; 3 internal panic"},
        {"machine", "0 ok; 2 usage; 1 fatal; 3 internal panic"},
        {"run-st", "0 ok; 1 fatal; 2 usage; 3 panic; 10 input; "
                   "11 estimator; 12 watchdog"},
        {"run-soe", "0 ok; 1 fatal; 2 usage; 3 panic; 10 input; "
                    "11 estimator; 12 watchdog"},
        {"sweep", "0 complete; 20 partial (MISSING cells); 21 no pair "
                  "has a result row; 2 usage; 1 fatal; 10 input; 13 "
                  "journal unreadable or corrupt"},
        {"analytic", "0 ok; 2 usage; 1 fatal; 3 internal panic; "
                     "10 input"},
    };
    ASSERT_EQ(std::size(lines), cliVerbs().size());
    for (const auto &[name, line] : lines)
        EXPECT_EQ(exitCodesText(*findCliVerb(name)), line) << name;
}

TEST(CliVerbs, EveryDocumentedExitCodeIsReachedOrNamed)
{
    // Each row drives the built CLI to one documented code, or, with
    // no arguments, names a code the CLI cannot reach on a sound
    // build and says where it is reached instead.
    const ScratchDir dir;
    const std::string sweepTo = " --journal " + dir.path +
                                "/j --out " + dir.path + "/o.csv";
    struct Row
    {
        const char *verb;
        int code;
        std::string args; ///< empty: named below, not reached
    };
    const Row rows[] = {
        {"help", 0, "help"},
        {"help", 2, "help nosuch"},
        {"list", 0, "list"},
        {"list", 2, "list --bogus"},
        // list and machine read no input that can fail.
        {"list", 1, ""},
        {"machine", 0, "machine"},
        {"machine", 2, "machine --bogus"},
        {"machine", 1, ""},
        {"run-st", 0, "run-st gcc --instrs 2000 --warmup 0"},
        {"run-st", 1, "run-st nosuch"},
        {"run-st", 2, "run-st"},
        {"run-st", 10, "run-st gcc --instrs 0"},
        // run-st runs the miss-only policy, which has no estimator.
        {"run-st", 11, ""},
        {"run-soe", 0, "run-soe gcc art --scale 0.01 --instrs 1000"},
        {"run-soe", 1, "run-soe gcc nosuch"},
        {"run-soe", 2, "run-soe gcc"},
        {"run-soe", 10, "run-soe gcc eon --F 1.5"},
        // The estimator fails only on a non-finite or negative
        // measured Miss_lat (Enforcer.NonFiniteMeasuredLatency-
        // IsEstimatorError); the watchdog only on a pipeline that
        // stops retiring (Engine.WatchdogFiresOnNoProgress).
        {"run-st", 12, ""},
        {"run-soe", 11, ""},
        {"run-soe", 12, ""},
        {"sweep", 0,
         "sweep --pairs gcc:art --levels 0 --scale 0.01 --instrs 1000" +
             sweepTo},
        // Some but not all cells missing needs a job that fails while
        // its neighbours pass: the SweepCampaign fault tests and
        // CliVerbs.SweepMessageMatchesItsExitCode reach it through
        // the attempt hook.
        {"sweep", 20, ""},
        // Full-length jobs (tens of ms at least) under a 1 ms deadline.
        {"sweep", 21,
         "sweep --pairs gcc:eon --levels 0 --scale 1 --deadline 0.001" +
             sweepTo},
        {"sweep", 1,
         "sweep --pairs gcc:eon --levels 0 --journal " + dir.path +
             "/j1 --out " + dir.path + "/no/such/dir/o.csv"},
        {"sweep", 2, "sweep --jobs 0" + sweepTo},
        {"sweep", 10, "sweep --scale 0.001" + sweepTo},
        {"sweep", 13,
         "sweep --pairs gcc:eon --levels 0 --resume " + dir.path +
             "/missing.journal --out " + dir.path + "/o13.csv"},
        {"analytic", 0, "analytic"},
        {"analytic", 1, "analytic --F nan"},
        {"analytic", 2, "analytic --ipc 1"},
        {"analytic", 10, "analytic --F 2"},
    };
    std::map<std::string, std::set<int>> covered;
    for (const Row &row : rows) {
        if (!row.args.empty()) {
            EXPECT_EQ(cliExit(row.args), row.code) << row.args;
        }
        covered[row.verb].insert(row.code);
    }
    for (const auto &verb : cliVerbs()) {
        std::set<int> documented;
        for (const auto &ec : verb.exitCodes)
            documented.insert(ec.code);
        // 3 is an internal panic, which no sound build reaches.
        documented.erase(3);
        EXPECT_EQ(covered[verb.name], documented) << verb.name;
    }
}

TEST(CliVerbs, UnknownOptionsAreUsageErrors)
{
    // A misspelt option must never run with defaults.
    EXPECT_EQ(usageCheck({"machine", "--nonsense", "3"}), 2);
    EXPECT_EQ(usageCheck({"run-soe", "gcc", "eon", "--measure",
                          "20000"}),
              2);
    // A flag another verb owns is still foreign here.
    EXPECT_EQ(usageCheck({"sweep", "--windows"}), 2);

    // Documented invocations parse, flags included.
    EXPECT_EQ(usageCheck({"run-soe", "gcc", "eon", "--F", "0.5",
                          "--instrs", "20000", "--windows",
                          "--no-fastforward"}),
              0);
    EXPECT_EQ(usageCheck({"sweep", "--jobs", "4", "--journal", "j",
                          "--out", "s.csv"}),
              0);
    EXPECT_EQ(usageCheck({"run-soe", "gcc", "eon", "--measured",
                          "--l1-switch", "--stats"}),
              0);
}

TEST(CliVerbs, MissingOptionValueIsAUsageError)
{
    // A value-taking option at the end of argv exits 2 with one
    // message line, never an uncaught exception.
    const ScratchDir dir;
    const std::string errPath = dir.path + "/stderr";
    for (const char *args : {"run-st gcc --instrs", "sweep --jobs"}) {
        EXPECT_EQ(cliExit(args, errPath), 2) << args;
        const std::string err = readFile(errPath);
        EXPECT_NE(err.find("needs a value"), std::string::npos) << err;
        EXPECT_EQ(err.find("terminate"), std::string::npos) << err;
    }
}

TEST(CliVerbs, ProducerThreadThatCannotStartIsFatal)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime alone exceeds the limit";
#endif
    // glibc sizes a new thread's stack by RLIMIT_STACK. A 4 GiB stack
    // cannot be mapped under a 1 GiB address-space limit, which the
    // rest of the run fits in: only the producer thread fails.
    const ScratchDir dir;
    const std::string errPath = dir.path + "/stderr";
    const std::string cmd =
        "ulimit -s 4194304 && ulimit -v 1048576 && " +
        std::string(SOEFAIR_CLI) +
        " run-st gcc --instrs 2000 --warmup 0 >/dev/null 2>" + errPath;
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 1);
    const std::string err = readFile(errPath);
    EXPECT_NE(err.find("cannot start the instruction-stream producer"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("terminate"), std::string::npos) << err;
}

TEST(CliVerbs, FlagsAreTheOptionsWithoutAValue)
{
    const std::vector<std::string> flags = cliFlagNames();
    const std::set<std::string> got(flags.begin(), flags.end());
    EXPECT_EQ(got, (std::set<std::string>{"no-fastforward", "measured",
                                          "l1-switch", "windows",
                                          "stats"}));
    EXPECT_EQ(got.size(), flags.size()); // no duplicates
}

TEST(CliVerbs, OnlyTheRunVerbsTakeASeed)
{
    // A sweep's seeds follow the pair rule, so --seed there would be
    // ignored: it is refused before the journal exists instead.
    const ScratchDir dir;
    const std::string journal = dir.path + "/sweep.journal";
    const std::string errPath = dir.path + "/stderr";
    EXPECT_EQ(cliExit("sweep --seed 7 --pairs gcc:eon --levels 0 "
                      "--instrs 2000 --warmup 0 --journal " + journal +
                          " --out " + dir.path + "/sweep.csv",
                      errPath),
              2);
    EXPECT_FALSE(std::filesystem::exists(journal));
    EXPECT_NE(readFile(errPath).find("unknown option --seed for 'sweep'"),
              std::string::npos)
        << readFile(errPath);

    for (const char *name : {"sweep", "run-st", "run-soe"}) {
        std::ostringstream os;
        printCliVerbHelp(os, *findCliVerb(name));
        EXPECT_EQ(os.str().find("--seed") != std::string::npos,
                  std::string(name) != "sweep")
            << name;
    }
    EXPECT_EQ(usageCheck({"run-st", "gcc", "--seed", "3"}), 0);
    EXPECT_EQ(usageCheck({"run-soe", "gcc", "eon", "--seed", "3"}), 0);
}

TEST(CliVerbs, BadLevelsFailBeforeAnyJobRuns)
{
    // A bad item is a usage error before the journal exists: read
    // leniently, "abc" would add an F = 0 cell, a level outside
    // [0, 1] would fail every job of its cell, and an unknown
    // benchmark would fail every job of its pair. A slot count that
    // is 0 or would wrap to 0 in an unsigned field, a negative
    // deadline, an option sweep does not have (the removed fault
    // hook among them) and a cell listed twice (it would journal two
    // `done` records, which a later --resume refuses) are refused the
    // same way.
    const ScratchDir dir;
    const std::string journal = dir.path + "/sweep.journal";
    for (const char *selection :
         {"--pairs gcc:eon --levels 0.5,abc", "--pairs gcc:eon --levels 2",
          "--pairs gcc:eon --levels -0.25",
          "--pairs gcc:eon --levels 0.5,1.5",
          "--pairs gcc:eon --levels nan",
          "--pairs gcc:eon --levels 0.5,,1",
          "--pairs gcc:nosuch --levels 0", "--pairs gcc: --levels 0",
          "--pairs gcc:eon,nosuch:eon --levels 0",
          "--pairs gcc:eon --levels 0 --inject x@hang",
          "--pairs gcc:eon --levels 0 --jobs 4294967296",
          "--pairs gcc:eon --levels 0 --jobs 0",
          "--pairs gcc:eon --levels 0 --deadline -1",
          "--pairs gcc:eon --levels 0 --retries 2",
          "--pairs gcc:eon --levels 0,0", "--pairs gcc:eon --levels 0,0.0",
          "--pairs gcc:eon,gcc:eon --levels 0"}) {
        EXPECT_EQ(cliExit(std::string("sweep ") + selection +
                          " --instrs 2000 --warmup 0 --journal " +
                          journal + " --out " + dir.path +
                          "/sweep.csv"),
                  2)
            << selection;
        EXPECT_FALSE(std::filesystem::exists(journal)) << selection;
    }
}

TEST(CliVerbs, SweepMessageMatchesItsExitCode)
{
    // With every SOE cell of the only pair failed, no pair has a
    // result row (exit 21); with one of two failed, the results are
    // partial (exit 20). Each says so, and only so, in the message
    // `sweep` prints on stderr; a complete campaign prints none.
    const ScratchDir dir;
    const std::string journal = dir.path + "/sweep.journal";
    RunConfig rc;
    rc.warmupInstrs = 0;
    rc.timingWarmInstrs = 1000;
    rc.measureInstrs = 2000;
    const struct
    {
        std::vector<double> levels;
        int code;
        const char *says;
        const char *never;
    } cases[] = {
        {{0.0}, exitCampaignFailed, "[sweep] FAILED: no pair has a "
                                    "result row; 1 cell(s) missing",
         "PARTIAL"},
        {{0.0, 0.5}, exitCampaignPartial,
         "[sweep] PARTIAL results: 1 cell(s) missing",
         "no pair has a result row"},
    };
    for (const auto &c : cases) {
        SweepCampaign campaign(MachineConfig::benchDefault(), rc,
                               {{"gcc", "eon"}}, c.levels);
        campaign.setAttemptHook([](const std::string &id, unsigned) {
            if (id == "soe:gcc:eon:F=0")
                raiseError<InputError>("injected");
        });
        const CampaignResult agg =
            campaign.run(SupervisorConfig{}, journal, /*resume=*/false);
        EXPECT_EQ(agg.exitCode(), c.code);
        std::ostringstream err;
        agg.reportMissing(err, journal);
        EXPECT_NE(err.str().find(c.says), std::string::npos) << err.str();
        EXPECT_EQ(err.str().find(c.never), std::string::npos)
            << err.str();
        EXPECT_NE(err.str().find("`sweep --resume " + journal + "`"),
                  std::string::npos)
            << err.str();
        EXPECT_NE(err.str().find("[sweep]   MISSING(gcc:eon,F=0,input "
                                 "after 1 attempt(s))\n"),
                  std::string::npos)
            << err.str();
    }
    std::ostringstream none;
    CampaignResult{}.reportMissing(none, journal);
    EXPECT_EQ(none.str(), "");
}

TEST(CliVerbs, BadPolicyFailsBeforeAnyReferenceRun)
{
    // Bad input must cost no simulation: run-soe builds its policy
    // and resolves every benchmark name before the single-thread
    // reference runs.
    const ScratchDir dir;
    const std::string errPath = dir.path + "/stderr";
    const std::pair<const char *, int> cases[] = {
        {"gcc eon --policy bogus", 2},
        {"gcc eon --F 1.5", InputError::code},
        {"gcc nosuch", 1},
    };
    for (const auto &[args, code] : cases) {
        EXPECT_EQ(cliExit(std::string("run-soe --instrs 2000 "
                                      "--warmup 0 ") +
                              args,
                          errPath),
                  code)
            << args;
        const std::string err = readFile(errPath);
        EXPECT_EQ(err.find("reference run"), std::string::npos)
            << args << ": " << err;
    }
}

TEST(CliVerbs, UnwritableSweepOutputFailsBeforeAnyJobRuns)
{
    // The CSV goes out after the whole campaign; an unwritable
    // --out must not throw that campaign away.
    const ScratchDir dir;
    const std::string journal = dir.path + "/sweep.journal";
    const std::string errPath = dir.path + "/stderr";
    EXPECT_EQ(cliExit("sweep --pairs gcc:eon --levels 0 --instrs 2000 "
                      "--warmup 0 --journal " + journal + " --out " +
                          dir.path + "/no/such/dir/sweep.csv",
                      errPath),
              1);
    EXPECT_FALSE(std::filesystem::exists(journal));
    const std::string err = readFile(errPath);
    EXPECT_EQ(err.find("[supervisor]"), std::string::npos) << err;
}

TEST(CliVerbs, ResumingAMissingJournalIsACheckpointError)
{
    const ScratchDir dir;
    const std::string errPath = dir.path + "/stderr";
    EXPECT_EQ(cliExit("sweep --pairs gcc:eon --levels 0 --instrs 2000 "
                      "--warmup 0 --resume " + dir.path +
                          "/missing.journal --out " + dir.path +
                          "/sweep.csv",
                      errPath),
              CheckpointError::code);
    const std::string err = readFile(errPath);
    EXPECT_EQ(err.find("[supervisor]"), std::string::npos) << err;
}

TEST(CliVerbs, ScaleReplacesTheEnvironmentScale)
{
    // --scale X runs at X whatever SOEFAIR_SCALE says; without
    // --scale the environment's scale applies.
    const ScratchDir dir;
    const std::string out = dir.path + "/stdout";
    const std::string alone =
        cliStdout("-u SOEFAIR_SCALE", "run-st gcc --scale 0.01", out);
    EXPECT_NE(alone.find("instructions"), std::string::npos) << alone;
    EXPECT_EQ(cliStdout("SOEFAIR_SCALE=0.5", "run-st gcc --scale 0.01",
                        out),
              alone);
    EXPECT_EQ(cliStdout("SOEFAIR_SCALE=0.01", "run-st gcc", out), alone);
    // Were the scales to compound (0.5 x 0.02 = 0.01), this would
    // equal the run above.
    EXPECT_NE(cliStdout("SOEFAIR_SCALE=0.5", "run-st gcc --scale 0.02",
                        out),
              alone);
}

TEST(CliVerbs, ScaleHasOneRangeForBothSources)
{
    // --scale and SOEFAIR_SCALE share one rule: outside [0.01, 100]
    // is an input error, never a clamp.
    const std::string cli = std::string(SOEFAIR_CLI) + " run-st gcc ";
    for (const std::string &cmd :
         {"env -u SOEFAIR_SCALE " + cli + "--scale 0.001",
          "env SOEFAIR_SCALE=0.001 " + cli,
          "env -u SOEFAIR_SCALE " + cli + "--scale 101",
          "env SOEFAIR_SCALE=inf " + cli}) {
        const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
        ASSERT_TRUE(WIFEXITED(status)) << cmd;
        EXPECT_EQ(WEXITSTATUS(status), InputError::code) << cmd;
    }
}

TEST(CliVerbs, MachinePrintsTheMachineTheRunVerbsSimulate)
{
    const ScratchDir dir;
    std::ostringstream want;
    MachineConfig::benchDefault().print(want);
    EXPECT_EQ(cliStdout("", "machine", dir.path + "/stdout"),
              want.str());
}

TEST(CliVerbs, EmptyMeasurementWindowIsAnInputError)
{
    // No instructions means no IPC and no fairness to report. A
    // non-positive --scale comes from the user too, so it is exit
    // 10, not an internal panic (3).
    EXPECT_EQ(cliExit("run-st gcc --instrs 0"), InputError::code);
    EXPECT_EQ(cliExit("run-soe gcc eon --instrs 0"), InputError::code);
    EXPECT_EQ(cliExit("run-st gcc --scale 0"), InputError::code);
    EXPECT_EQ(cliExit("run-st gcc --scale -1"), InputError::code);
}
