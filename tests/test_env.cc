/**
 * @file
 * Tests for the single environment access point (harness/env.hh):
 * raw/typed reads, and environment > default for their callers
 * (DET-002's whitelisted accessor — see docs/correctness.md).
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "harness/env.hh"
#include "harness/runner.hh"
#include "sim/errors.hh"

using namespace soefair::harness;

namespace
{

/** RAII set/unset so tests cannot leak environment state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name_, const char *value) : name(name_)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() { ::unsetenv(name); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name;
};

constexpr const char *var = "SOEFAIR_TEST_ENV_VAR";

} // namespace

TEST(Env, GetReturnsNulloptWhenUnset)
{
    ScopedEnv e(var, nullptr);
    EXPECT_FALSE(env::get(var).has_value());
    EXPECT_EQ(env::getOr(var, "fallback"), "fallback");
}

TEST(Env, GetReturnsValueWhenSet)
{
    ScopedEnv e(var, "hello");
    ASSERT_TRUE(env::get(var).has_value());
    EXPECT_EQ(*env::get(var), "hello");
    EXPECT_EQ(env::getOr(var, "fallback"), "hello");
}

TEST(Env, EmptyStringCountsAsSet)
{
    ScopedEnv e(var, "");
    EXPECT_TRUE(env::get(var).has_value());
    EXPECT_EQ(env::getOr(var, "fallback"), "");
}

TEST(Env, BoolParsesOffSpellings)
{
    for (const char *off : {"0", "off", "OFF", "false"}) {
        ScopedEnv e(var, off);
        ASSERT_TRUE(env::getBool(var).has_value()) << off;
        EXPECT_FALSE(*env::getBool(var)) << off;
    }
    for (const char *on : {"1", "on", "yes", ""}) {
        ScopedEnv e(var, on);
        ASSERT_TRUE(env::getBool(var).has_value()) << on;
        EXPECT_TRUE(*env::getBool(var)) << on;
    }
    ScopedEnv e(var, nullptr);
    EXPECT_FALSE(env::getBool(var).has_value());
}

TEST(Env, NumericParsesAndRejectsGarbage)
{
    {
        ScopedEnv e(var, "0.25");
        ASSERT_TRUE(env::getDouble(var).has_value());
        EXPECT_DOUBLE_EQ(*env::getDouble(var), 0.25);
    }
    {
        ScopedEnv e(var, "12");
        ASSERT_TRUE(env::getUnsigned(var).has_value());
        EXPECT_EQ(*env::getUnsigned(var), 12u);
    }
    for (const char *bad : {"abc", "1.5x", ""}) {
        ScopedEnv e(var, bad);
        EXPECT_FALSE(env::getDouble(var).has_value()) << bad;
        EXPECT_FALSE(env::getUnsigned(var).has_value()) << bad;
    }
    // Out of range for the type: a sign, or more than 32 bits.
    for (const char *bad : {"-1", "-0", "4294967296",
                            "18446744073709551616"}) {
        ScopedEnv e(var, bad);
        EXPECT_FALSE(env::getUnsigned(var).has_value()) << bad;
    }
    {
        ScopedEnv e(var, "4294967295");
        ASSERT_TRUE(env::getUnsigned(var).has_value());
        EXPECT_EQ(*env::getUnsigned(var), 4294967295u);
    }
    for (const char *bad : {"nan", "inf", "-inf", "1e999"}) {
        ScopedEnv e(var, bad);
        EXPECT_FALSE(env::getDouble(var).has_value()) << bad;
    }
}

TEST(Env, PrecedenceCliBeatsEnvBeatsDefault)
{
    // A caller applies its default with value_or, as
    // bench/eval_common.cc does for SOEFAIR_EVAL_JOBS. The CLI half of
    // the rule is held where a CLI value exists:
    // CliVerbs.ScaleReplacesTheEnvironmentScale.
    {
        ScopedEnv e(var, "9");
        EXPECT_EQ(env::getUnsigned(var).value_or(1u), 9u);
        EXPECT_DOUBLE_EQ(env::getDouble(var).value_or(1.0), 9.0);
    }
    // Unset: the default.
    {
        ScopedEnv e(var, nullptr);
        EXPECT_EQ(env::getUnsigned(var).value_or(4u), 4u);
        EXPECT_DOUBLE_EQ(env::getDouble(var).value_or(1.0), 1.0);
    }
    // Unparsable environment falls back to the default, not to 0.
    {
        ScopedEnv e(var, "garbage");
        EXPECT_EQ(env::getUnsigned(var).value_or(6u), 6u);
        EXPECT_DOUBLE_EQ(env::getDouble(var).value_or(1.5), 1.5);
    }
}

TEST(Env, RunConfigFromEnvUsesAccessor)
{
    // The harness's environment reads, end to end through the
    // accessor: SOEFAIR_FASTFORWARD / SOEFAIR_SCALE.
    using soefair::harness::RunConfig;
    {
        ScopedEnv ff("SOEFAIR_FASTFORWARD", "off");
        ScopedEnv sc("SOEFAIR_SCALE", nullptr);
        EXPECT_FALSE(RunConfig::fromEnv().fastForward);
    }
    {
        ScopedEnv ff("SOEFAIR_FASTFORWARD", nullptr);
        ScopedEnv sc("SOEFAIR_SCALE", "0.5");
        RunConfig base;
        const RunConfig rc = RunConfig::fromEnv(base);
        EXPECT_TRUE(rc.fastForward);
        EXPECT_EQ(rc.measureInstrs, base.measureInstrs / 2);
    }
    // A non-finite scale is an input error, as it is for --scale.
    for (const char *bad : {"nan", "inf"}) {
        ScopedEnv ff("SOEFAIR_FASTFORWARD", nullptr);
        ScopedEnv sc("SOEFAIR_SCALE", bad);
        EXPECT_THROW(RunConfig::fromEnv(), soefair::InputError) << bad;
    }
}
