/**
 * @file
 * The single environment-variable access point.
 *
 * Determinism rule DET-002 forbids `getenv` everywhere except env.cc
 * (tools/symbol_check.sh finds it in any other built object):
 * environment reads scattered through model code are invisible
 * inputs that break the byte-identical determinism contract, so
 * every read funnels through here, where it is named, typed and
 * testable. A set, parsable variable wins over the
 * built-in default (`getUnsigned(name).value_or(def)`); a command-line
 * option that overrides a variable is applied by its caller on top
 * (soefair_cli's `--scale` replaces SOEFAIR_SCALE).
 *
 * Model code (src/{sim,cpu,mem,soe,workload}) must not call even
 * these accessors — the environment may steer *harness* behaviour
 * (scales, job counts, toggles), never simulated results.
 */

#ifndef SOEFAIR_HARNESS_ENV_HH
#define SOEFAIR_HARNESS_ENV_HH

#include <optional>
#include <string>

namespace soefair
{
namespace harness
{
namespace env
{

/** Raw read: the variable's value, or nullopt when unset. */
std::optional<std::string> get(const char *name);

/** The variable's value, or `fallback` when unset. */
std::string getOr(const char *name, const std::string &fallback);

/**
 * Boolean read: unset -> nullopt; "0" / "off" / "OFF" / "false" ->
 * false; anything else (including "") -> true.
 */
std::optional<bool> getBool(const char *name);

/**
 * Numeric read: unset, unparsable or out of range -> nullopt (a
 * warning naming the variable is logged for set-but-rejected
 * values). getDouble rejects non-finite values; getUnsigned rejects
 * a sign and anything above UINT_MAX.
 */
std::optional<double> getDouble(const char *name);
std::optional<unsigned> getUnsigned(const char *name);

} // namespace env
} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_ENV_HH
