/**
 * @file
 * Runtime cross-check of the SimError exit-code taxonomy: every
 * SimError class must round-trip through the CLI's shared
 * failure-to-exit-code mapping (harness::runWithExitCodeMapping) to
 * its declared code, every documented exit code in the verb
 * registry must name a real code, and a verb that exits with a code
 * its entry does not list is caught (harness::runCliVerb). Each
 * SimError::Kind's code and name come from one table in
 * src/sim/errors.cc, and raiseError<E> only compiles for a SimError
 * subclass that declares E::code.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <set>
#include <string>
#include <vector>

#include "harness/cli_verbs.hh"
#include "sim/errors.hh"
#include "sim/invariant.hh"
#include "sim/logging.hh"

using namespace soefair;
using harness::runWithExitCodeMapping;

namespace
{

/** One row per SimError class: declared code + a live instance. */
struct TaxonomyRow
{
    const char *className;
    int code;
    SimError error;
};

std::vector<TaxonomyRow>
taxonomy()
{
    return {
        {"InputError", InputError::code, InputError("t")},
        {"EstimatorError", EstimatorError::code, EstimatorError("t")},
        {"WatchdogTimeout", WatchdogTimeout::code,
         WatchdogTimeout("t")},
        {"CheckpointError", CheckpointError::code,
         CheckpointError("t")},
    };
}

// A SimError subclass without an exit code cannot be raised.
class CodelessError : public SimError
{
  public:
    explicit CodelessError(const std::string &msg)
        : SimError(Kind::Input, msg)
    {}
};

static_assert(TypedSimError<InputError> &&
              TypedSimError<CheckpointError>);
static_assert(!TypedSimError<CodelessError>);
static_assert(!TypedSimError<SimError> && !TypedSimError<FatalError>);

} // namespace

TEST(ExitCodes, EveryClassHasADistinctCodeInTheReservedBand)
{
    std::set<int> seen;
    for (const auto &row : taxonomy()) {
        EXPECT_GE(row.code, 10) << row.className;
        EXPECT_LE(row.code, 13) << row.className;
        EXPECT_TRUE(seen.insert(row.code).second)
            << row.className << " reuses exit code " << row.code;
    }
    // The band is full: adding a fifth class forces a conscious
    // extension of the reserved range (and of this test).
    EXPECT_EQ(seen.size(), 4u);
}

TEST(ExitCodes, ExitCodeMatchesDeclaredConstant)
{
    for (const auto &row : taxonomy())
        EXPECT_EQ(row.error.exitCode(), row.code) << row.className;
}

TEST(ExitCodes, KindNameRoundTripsThroughExitCode)
{
    const int numKinds = int(SimError::Kind::NumKinds);
    std::set<std::string> names;
    for (int k = 0; k < numKinds; ++k) {
        const SimError err(SimError::Kind(k), "t");
        const char *name = simErrorKindNameForExit(err.exitCode());
        ASSERT_NE(name, nullptr) << "kind " << k;
        EXPECT_STREQ(name, err.kindName()) << "kind " << k;
        EXPECT_TRUE(names.insert(name).second) << name;
    }
    EXPECT_EQ(taxonomy().size(), std::size_t(numKinds));
    // Codes outside the taxonomy map to nothing.
    for (int code : {0, 1, 2, 3, 9, 14, 255})
        EXPECT_EQ(simErrorKindNameForExit(code), nullptr) << code;
}

TEST(ExitCodes, CliMappingReturnsTheClassCode)
{
    // Round-trip every class through the exact mapping soefair_cli
    // wraps around its dispatch.
    for (const auto &row : taxonomy()) {
        const SimError err = row.error;
        EXPECT_EQ(runWithExitCodeMapping(
                      [&]() -> int { throw err; }),
                  row.code)
            << row.className;
    }
}

TEST(ExitCodes, CliMappingForUntypedFailures)
{
    EXPECT_EQ(runWithExitCodeMapping([] { return 0; }), 0);
    EXPECT_EQ(runWithExitCodeMapping([] { return 42; }), 42);
    EXPECT_EQ(runWithExitCodeMapping(
                  []() -> int { throw FatalError("f"); }),
              1);
    EXPECT_EQ(runWithExitCodeMapping(
                  []() -> int { throw PanicError("p"); }),
              3);
    EXPECT_EQ(runWithExitCodeMapping(
                  []() -> int { throw AuditError("a"); }),
              3);
}

TEST(ExitCodes, RaiseErrorLandsOnTheSameCode)
{
    EXPECT_EQ(runWithExitCodeMapping([]() -> int {
                  raiseError<WatchdogTimeout>("no progress");
              }),
              WatchdogTimeout::code);
    EXPECT_EQ(runWithExitCodeMapping([]() -> int {
                  raiseError<CheckpointError>("bad magic");
              }),
              CheckpointError::code);
}

TEST(ExitCodes, EveryDocumentedVerbCodeNamesARealCode)
{
    // The verb registry's exit-code contracts may only list the
    // process-level codes (0 ok, 1 fatal, 2 usage, 3 panic), the
    // SimError band, or the campaign summary codes 20 and 21, each
    // once.
    const std::set<int> processCodes = {0, 1, 2, 3, 20, 21};
    for (const auto &verb : harness::cliVerbs()) {
        std::set<int> codes;
        for (const auto &ec : verb.exitCodes) {
            EXPECT_TRUE(codes.insert(ec.code).second)
                << verb.name << " lists exit code " << ec.code
                << " twice";
            EXPECT_FALSE(ec.meaning.empty()) << verb.name;
            EXPECT_TRUE(processCodes.count(ec.code) ||
                        simErrorKindNameForExit(ec.code) != nullptr)
                << verb.name << " documents unknown exit code "
                << ec.code;
        }
        EXPECT_TRUE(codes.count(0))
            << verb.name << ": no success code documented";
    }
}

TEST(ExitCodes, AVerbExitingWithAnUnlistedCodeIsCaught)
{
    const harness::CliVerb &list = *harness::findCliVerb("list");
    std::ostringstream err;
    EXPECT_EQ(harness::runCliVerb(list, [] { return 2; }, err), 2);
    EXPECT_EQ(err.str(), "");
    // 7 is no code of `list`: an internal error, exit 3.
    EXPECT_EQ(harness::runCliVerb(list, [] { return 7; }, err), 3);
    EXPECT_EQ(err.str(),
              "internal error: 'list' exited 7, which its registry "
              "entry does not list (0 ok; 2 usage; 1 fatal; 3 "
              "internal panic)\n");
    // So is a typed error the entry does not list.
    err.str("");
    EXPECT_EQ(harness::runCliVerb(list,
                                  []() -> int {
                                      throw CheckpointError("t");
                                  },
                                  err),
              3);
    EXPECT_NE(err.str().find("exited 13"), std::string::npos);
    // A panic is exit 3 in any verb, listed or not.
    const harness::CliVerb &help = *harness::findCliVerb("help");
    err.str("");
    EXPECT_EQ(harness::runCliVerb(help,
                                  []() -> int { throw PanicError("p"); },
                                  err),
              3);
    EXPECT_EQ(err.str(), "");
}
