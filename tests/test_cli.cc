/** @file Unit tests for the command-line option parser. */

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "sim/logging.hh"

using namespace soefair;
using harness::CliOptions;

namespace
{

CliOptions
parse(std::initializer_list<const char *> args,
      const std::vector<std::string> &flags = {})
{
    std::vector<const char *> v(args);
    return CliOptions(int(v.size()), v.data(), flags);
}

} // namespace

TEST(Cli, PositionalsInOrder)
{
    auto o = parse({"run-soe", "gcc", "eon"});
    ASSERT_EQ(o.positional().size(), 3u);
    EXPECT_EQ(o.positional()[0], "run-soe");
    EXPECT_EQ(o.positional()[2], "eon");
}

TEST(Cli, OptionsConsumeNextToken)
{
    auto o = parse({"run-st", "gcc", "--seed", "7", "--F", "0.5"});
    EXPECT_EQ(o.getUint("seed", 0), 7u);
    EXPECT_DOUBLE_EQ(o.getDouble("F", 0.0), 0.5);
    EXPECT_EQ(o.positional().size(), 2u);
}

TEST(Cli, EqualsSyntax)
{
    auto o = parse({"cmd", "--instrs=4000", "--name=gcc"});
    EXPECT_EQ(o.getUint("instrs", 0), 4000u);
    EXPECT_EQ(o.getString("name", ""), "gcc");
}

TEST(Cli, KnownFlagsTakeNoValue)
{
    auto o = parse({"run-soe", "a", "b", "--windows", "--F", "1"},
                   {"windows"});
    EXPECT_TRUE(o.hasFlag("windows"));
    EXPECT_EQ(o.positional().size(), 3u);
    EXPECT_DOUBLE_EQ(o.getDouble("F", 0.0), 1.0);
}

TEST(Cli, DefaultsWhenAbsent)
{
    auto o = parse({"cmd"});
    EXPECT_EQ(o.getUint("instrs", 123), 123u);
    EXPECT_DOUBLE_EQ(o.getDouble("F", 0.25), 0.25);
    EXPECT_EQ(o.getString("policy", "fairness"), "fairness");
    EXPECT_FALSE(o.hasFlag("windows"));
    EXPECT_FALSE(o.hasOption("instrs"));
}

TEST(Cli, DoubleDashEndsOptions)
{
    auto o = parse({"cmd", "--", "--not-an-option"});
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[1], "--not-an-option");
}

TEST(Cli, MalformedNumbersAreFatal)
{
    auto o = parse({"cmd", "--instrs", "abc", "--F", "x1"});
    EXPECT_THROW(o.getUint("instrs", 0), FatalError);
    EXPECT_THROW(o.getDouble("F", 0.0), FatalError);

    // strtoull would read "-1" as 2^64 - 1 and clamp overflow there.
    for (const char *bad : {"-1", "-0", " -5", "18446744073709551616"}) {
        auto u = parse({"cmd", "--warmup", bad});
        EXPECT_THROW(u.getUint("warmup", 0), FatalError) << bad;
    }
    EXPECT_EQ(parse({"cmd", "--warmup", "18446744073709551615"})
                  .getUint("warmup", 0),
              18446744073709551615ull);

    for (const char *bad : {"nan", "inf", "-inf", "1e999"}) {
        auto d = parse({"cmd", "--deadline", bad});
        EXPECT_THROW(d.getDouble("deadline", 0.0), FatalError) << bad;
    }
    EXPECT_DOUBLE_EQ(parse({"cmd", "--F", "-0.5"}).getDouble("F", 0.0),
                     -0.5);
}

TEST(Cli, MissingValueIsFatal)
{
    EXPECT_THROW(parse({"cmd", "--seed"}), FatalError);
}

TEST(Cli, UnknownOptionDetection)
{
    auto o = parse({"cmd", "--good", "1", "--typo", "2"});
    auto unknown = o.unknownOptions({"good"});
    ASSERT_EQ(unknown.size(), 1u);
    EXPECT_EQ(unknown[0], "typo");
}
