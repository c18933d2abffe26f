/**
 * @file
 * Deterministic fault-injection harness for the hardened runtime.
 *
 * Each FaultClass names one way the outside world (or a broken
 * hardware counter) can hand the simulator garbage. A scenario
 * builds a valid input, corrupts it under a seeded Rng (no wall
 * clock anywhere, so the same seed replays the same fault), then
 * runs the code path that consumes it and checks the contract
 * of the error taxonomy (sim/errors.hh): the simulator must either
 *
 *  - reject the input with the *right* SimError subclass, or
 *  - degrade gracefully and complete (the estimator-guardrail path),
 *
 * and must never crash, hang or emit NaN. runFaultScenario() wraps a
 * scenario with that check and reports the outcome; provokeFault()
 * runs it bare so the typed error escapes to the caller (the CLI's
 * `faults --raw` uses this to exercise the exit-code mapping
 * end-to-end, which is what tools/run_faults.sh asserts on).
 */

#ifndef SOEFAIR_SIM_FAULTINJECT_HH
#define SOEFAIR_SIM_FAULTINJECT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace soefair
{
namespace sim
{

/**
 * The injectable fault classes. A class's value salts its scenario's
 * seed, so the values stay fixed: a seed replays the same fault in
 * every version.
 */
enum class FaultClass
{
    /** Machine configuration with out-of-range values. */
    GarbageConfig = 3,
    /** Hardware counter samples corrupted mid-run. */
    CounterCorruption = 4,
    /** A miss that never resolves starves the whole machine. */
    StuckMiss = 5,
};

/** All classes, in a fixed order (the `faults all` sweep order). */
const std::vector<FaultClass> &allFaultClasses();

/** Stable scenario name ("garbage-config", ...). */
const char *faultName(FaultClass f);

/** Parse a scenario name; returns false if unknown. */
bool faultByName(const std::string &name, FaultClass &out);

/**
 * The exit code a bare run of this scenario must die with (the
 * SimError subclass's code), or 0 for scenarios whose contract is
 * graceful completion.
 */
int expectedExitCode(FaultClass f);

/** Outcome of one checked scenario run. */
struct FaultReport
{
    FaultClass fault = FaultClass::GarbageConfig;
    /** faultName(fault), for printing. */
    std::string scenario;
    /** The scenario's contract held. */
    bool passed = false;
    /** What happened (error message observed, counters checked). */
    std::string detail;
};

/**
 * Run one scenario under the harness's contract check.
 *
 * @param seed Seeds every random choice in the scenario.
 */
FaultReport runFaultScenario(FaultClass f, std::uint64_t seed);

/**
 * Run the scenario's faulting path bare: the typed SimError (if the
 * contract holds) propagates to the caller. Scenarios whose contract
 * is graceful degradation simply return.
 */
void provokeFault(FaultClass f, std::uint64_t seed);

} // namespace sim
} // namespace soefair

#endif // SOEFAIR_SIM_FAULTINJECT_HH
