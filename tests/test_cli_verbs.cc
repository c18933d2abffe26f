/**
 * @file
 * CLI help-coverage tests: every verb the CLI dispatches must be in
 * the registry with a synopsis, a description and an exit-code
 * contract, and the rendered help must actually show them. Adding a
 * verb without documenting it is a test failure, not a silent gap;
 * an option a verb does not register is a usage error (exit 2).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli_verbs.hh"

using namespace soefair::harness;

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

} // namespace

TEST(CliVerbs, RegistryCoversEveryDispatchedVerb)
{
    const char *expected[] = {
        "help",    "list",    "machine", "run-st",
        "run-soe", "sweep",   "record-trace", "enqueue",
        "serve",   "drain",   "analytic", "faults",
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
    EXPECT_NE(findCliVerb("drain"), nullptr);
    EXPECT_EQ(findCliVerb("no-such-verb"), nullptr);
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
        EXPECT_NE(help.find("exit codes: " + verb.exitCodes),
                  std::string::npos)
            << "verb: " << verb.name;
        for (const auto &opt : verb.options) {
            EXPECT_NE(help.find(opt.name), std::string::npos)
                << verb.name << " option: " << opt.name;
        }
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
    EXPECT_EQ(usageCheck({"faults", "stuck-miss", "--raw"}), 0);
}

TEST(CliVerbs, FlagsAreTheOptionsWithoutAValue)
{
    const std::vector<std::string> flags = cliFlagNames();
    const std::set<std::string> got(flags.begin(), flags.end());
    EXPECT_EQ(got, (std::set<std::string>{"no-fastforward", "measured",
                                          "l1-switch", "windows",
                                          "stats", "raw"}));
    EXPECT_EQ(got.size(), flags.size()); // no duplicates
}
