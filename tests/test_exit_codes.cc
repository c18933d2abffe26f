/**
 * @file
 * Runtime cross-check of the SimError exit-code taxonomy: every
 * SimError class must round-trip through the CLI's shared
 * failure-to-exit-code mapping (harness::runWithExitCodeMapping) to
 * its declared code, and every documented exit code in the verb
 * registry must name a real code. Each SimError::Kind's code and
 * name come from one table in src/sim/errors.cc, and raiseError<E>
 * only compiles for a SimError subclass that declares E::code; this
 * test pins the ground truth that soelint's ERR-003 rule checks
 * against the CLI statically.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
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

/**
 * Every integer that a verb's exit-code contract documents. The
 * registry's prose format is "N description; N description; ...",
 * occasionally with an "a..b" range ("exit code (10..13)").
 */
std::set<int>
documentedCodes(const std::string &contract)
{
    std::set<int> codes;
    for (std::size_t i = 0; i < contract.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(contract[i])))
            continue;
        std::size_t end = i;
        while (end < contract.size() &&
               std::isdigit(static_cast<unsigned char>(contract[end])))
            ++end;
        const int lo = std::stoi(contract.substr(i, end - i));
        if (contract.compare(end, 2, "..") == 0) {
            std::size_t hiStart = end + 2, hiEnd = hiStart;
            while (hiEnd < contract.size() &&
                   std::isdigit(static_cast<unsigned char>(
                       contract[hiEnd])))
                ++hiEnd;
            const int hi =
                std::stoi(contract.substr(hiStart, hiEnd - hiStart));
            for (int c = lo; c <= hi; ++c)
                codes.insert(c);
            i = hiEnd;
        } else {
            codes.insert(lo);
            i = end;
        }
    }
    return codes;
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
    // The verb registry's exit-code contracts may only mention the
    // process-level codes (0 ok, 1 fatal, 2 usage, 3 panic), the
    // SimError band, or the campaign summary codes 20 and 21. A
    // typo'd code here is exactly the drift ERR-003 exists to catch.
    const std::set<int> processCodes = {0, 1, 2, 3, 20, 21};
    for (const auto &verb : harness::cliVerbs()) {
        ASSERT_FALSE(verb.exitCodes.empty()) << verb.name;
        const std::set<int> codes = documentedCodes(verb.exitCodes);
        ASSERT_FALSE(codes.empty()) << verb.name;
        EXPECT_TRUE(codes.count(0))
            << verb.name << ": no success code documented";
        for (int code : codes) {
            EXPECT_TRUE(processCodes.count(code) ||
                        simErrorKindNameForExit(code) != nullptr)
                << verb.name << " documents unknown exit code "
                << code << " in '" << verb.exitCodes << "'";
        }
    }
}
