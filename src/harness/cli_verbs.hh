/**
 * @file
 * Registry of soefair_cli verbs: one record per command with its
 * synopsis, option list and exit codes. `soefair_cli help [verb]`
 * renders it, the CLI rejects any option a verb does not register,
 * and a test walks it to guarantee every registered verb documents
 * its flags and exit codes — adding a verb without documentation is
 * a test failure, not a silent gap.
 */

#ifndef SOEFAIR_HARNESS_CLI_VERBS_HH
#define SOEFAIR_HARNESS_CLI_VERBS_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/cli.hh"

namespace soefair
{
namespace harness
{

struct CliVerbOption
{
    std::string name;        ///< "--journal F"
    std::string description; ///< one line
};

struct CliExitCode
{
    int code;            ///< 13
    std::string meaning; ///< "journal unreadable or corrupt"
};

struct CliVerb
{
    std::string name;     ///< "sweep"
    std::string synopsis; ///< "sweep [options]"
    std::string description;
    std::vector<CliVerbOption> options;
    /** Exit-code contract, in the order help lists it. */
    std::vector<CliExitCode> exitCodes;
};

/** Every verb the CLI dispatches, in help order. */
const std::vector<CliVerb> &cliVerbs();

/** Find a verb by name; nullptr when unknown. */
const CliVerb *findCliVerb(const std::string &name);

/**
 * Every registered option without a value placeholder ("--stats",
 * "--windows"), across all verbs: the flag set argv is parsed with.
 */
std::vector<std::string> cliFlagNames();

/**
 * Reject options `verb` does not register: prints one line per
 * unknown option to `err` and returns 2 (usage); 0 when every
 * option given is one the verb documents.
 */
int checkCliOptions(const CliVerb &verb, const CliOptions &opts,
                    std::ostream &err);

/** A verb's exit codes as its help shows them: "0 ok; 2 usage". */
std::string exitCodesText(const CliVerb &verb);

/** Render the one-screen overview (all verbs, one line each). */
void printCliHelp(std::ostream &os);

/** Render one verb's full help (options + exit codes). */
void printCliVerbHelp(std::ostream &os, const CliVerb &verb);

/**
 * Run a CLI verb body under the canonical failure-to-exit-code
 * mapping: a thrown SimError becomes its class's exit code
 * (10..13), FatalError becomes 1, PanicError and AuditError become
 * 3. Every failure path of soefair_cli funnels through this one
 * function, and tests/test_exit_codes.cc round-trips each SimError
 * class through it — so the mapping a scripted caller observes is
 * the mapping the tests pin down.
 */
int runWithExitCodeMapping(const std::function<int()> &body);

/**
 * Run `verb`'s body under runWithExitCodeMapping and hold it to its
 * registry entry: a code the entry does not list is an internal
 * error, reported on `err` and returned as 3 (an internal panic,
 * which any verb may hit).
 */
int runCliVerb(const CliVerb &verb, const std::function<int()> &body,
               std::ostream &err);

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_CLI_VERBS_HH
