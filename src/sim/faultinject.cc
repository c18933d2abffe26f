#include "sim/faultinject.hh"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/enforcer.hh"
#include "core/estimator.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "sim/errors.hh"
#include "sim/random.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "stats/stats.hh"

namespace soefair
{
namespace sim
{

namespace
{

void
provokeGarbageConfig(Rng &rng)
{
    harness::MachineConfig mc = harness::MachineConfig::benchDefault();
    switch (rng.below(7)) {
      case 0:
        mc.core.retireWidth = 0;
        break;
      case 1: // ROB narrower than retire width
        mc.core.robEntries = 1;
        mc.core.retireWidth = 4;
        break;
      case 2:
        mc.mem.l1d.assoc = 0;
        break;
      case 3:
        mc.mem.memLatency = 0;
        break;
      case 4:
        mc.soe.missLatency =
            std::numeric_limits<double>::quiet_NaN();
        break;
      case 5: // quota longer than the sampling period
        mc.soe.maxCyclesQuota = mc.soe.delta * 2;
        break;
      default:
        mc.soe.delta = 0;
        break;
    }
    harness::Runner runner(mc); // must raise InputError
    (void)runner;
}

core::HwCounters
hw(std::uint64_t instrs, std::uint64_t cycles, std::uint64_t misses)
{
    core::HwCounters c;
    c.instrs = instrs;
    c.cycles = cycles;
    c.misses = misses;
    return c;
}

/**
 * The graceful-degradation half of the counter-corruption contract:
 * with guardrails on, a stream of corrupt samples must degrade the
 * enforcer to plain SOE (never NaN quotas), and good samples must
 * bring it back. Returns "" on success, a failure description
 * otherwise.
 */
std::string
checkGuardedDegradation(Rng &rng)
{
    core::GuardrailConfig g; // defaults: enabled, N = 4
    core::FairnessEnforcer enf(0.5, 300.0, 2, g);

    bool quotasOk = true;
    auto feed = [&](const core::HwCounters &a,
                    const core::HwCounters &b) {
        for (double q : enf.recompute({a, b}, -1.0)) {
            if (std::isnan(q) || q <= 0.0)
                quotasOk = false;
        }
    };
    auto good = [&] {
        feed(hw(5000 + rng.below(200), 2000, 10),
             hw(900 + rng.below(100), 1800, 30));
    };

    for (int k = 0; k < 10; ++k)
        good();
    if (!quotasOk)
        return "NaN or non-positive quota in the good regime";
    if (enf.degraded())
        return "degraded with healthy counters";

    // Thread 1's counter samples go bad: alternately impossible
    // (cycles stuck at zero) and wildly outlying (bit-flipped
    // instruction count), chosen by seed.
    for (unsigned k = 0; k < g.maxBadWindows + 2; ++k) {
        const core::HwCounters bad = rng.below(2) == 0
            ? hw(5000, 0, 10)
            : hw(5'000'000'000ull, 1, 0);
        feed(hw(5000 + rng.below(200), 2000, 10), bad);
    }
    if (!quotasOk)
        return "NaN or non-positive quota while degrading";
    if (!enf.degraded())
        return "did not degrade after N consecutive bad windows";
    const auto &s = enf.guardStats();
    if (s.degradations != 1)
        return "expected exactly one degradation transition";
    if (s.degenerateWindows + s.outlierWindows == 0)
        return "no window was flagged degenerate or outlier";

    for (int k = 0; k < 6; ++k)
        good();
    if (!quotasOk)
        return "NaN or non-positive quota after recovery";
    if (enf.degraded())
        return "did not recover once good windows returned";
    if (enf.guardStats().recoveries != 1)
        return "expected exactly one recovery transition";
    return "";
}

void
provokeCounterCorruption(Rng &rng)
{
    // First the graceful half; a violation is a harness failure,
    // not a SimError.
    const std::string failure = checkGuardedDegradation(rng);
    if (!failure.empty())
        // detlint: allow(ERR-001)
        throw std::runtime_error("guarded degradation: " + failure);

    // Then strict mode: with guardrails disabled the same impossible
    // sample is a typed, defined failure.
    core::GuardrailConfig strict;
    strict.enabled = false;
    core::FairnessEnforcer enf(0.5, 300.0, 2, strict);
    enf.recompute({hw(5000, 2000, 10), hw(900, 1800, 30)}, -1.0);
    // Retired instructions with zero run cycles: impossible.
    enf.recompute({hw(5000, 0, 10), hw(900, 1800, 30)}, -1.0);
}

void
provokeStuckMiss(Rng &rng)
{
    statistics::Group root("faultinject");
    soe::MissOnlyPolicy pol;
    soe::SoeConfig cfg;
    cfg.delta = 10000;
    cfg.maxCyclesQuota = 0;
    cfg.watchdogWindows = 4 + unsigned(rng.below(4));
    soe::SoeEngine eng(cfg, pol, 2, &root);

    // Both threads hit misses that never resolve: thread 0 switches
    // out on its miss, thread 1 then stalls at the ROB head forever
    // with nobody ready to switch to.
    const Tick never = Tick(1) << 60;
    eng.onSwitchIn(0, 0);
    eng.onRetire(0, 5);
    if (eng.onHeadStall(0, 1, 20, never, true) != 1)
        // detlint: allow(ERR-001)
        throw std::runtime_error("stuck-miss setup: no switch to 1");
    eng.onSwitchOut(0, 20, cpu::SwitchReason::MissEvent);
    eng.onSwitchIn(1, 26);
    eng.onRetire(1, 30);
    eng.onHeadStall(1, 2, 40, never, true);

    // Drive cycles; the watchdog must fire within K+1 windows (the
    // first window saw retirements). The bound makes a missing
    // watchdog a detected failure instead of an endless loop.
    const Tick bound = Tick(cfg.watchdogWindows + 3) * cfg.delta;
    for (Tick t = 100; t <= bound; t += 100)
        eng.onCycle(1, t); // must raise WatchdogTimeout
}

} // namespace

const std::vector<FaultClass> &
allFaultClasses()
{
    static const std::vector<FaultClass> all = {
        FaultClass::GarbageConfig,
        FaultClass::CounterCorruption,
        FaultClass::StuckMiss,
    };
    return all;
}

const char *
faultName(FaultClass f)
{
    switch (f) {
      case FaultClass::GarbageConfig:
        return "garbage-config";
      case FaultClass::CounterCorruption:
        return "counter-corruption";
      case FaultClass::StuckMiss:
        return "stuck-miss";
    }
    return "unknown";
}

bool
faultByName(const std::string &name, FaultClass &out)
{
    for (FaultClass f : allFaultClasses()) {
        if (name == faultName(f)) {
            out = f;
            return true;
        }
    }
    return false;
}

int
expectedExitCode(FaultClass f)
{
    switch (f) {
      case FaultClass::GarbageConfig:
        return InputError::code;
      case FaultClass::CounterCorruption:
        return EstimatorError::code;
      case FaultClass::StuckMiss:
        return WatchdogTimeout::code;
    }
    return 0;
}

void
provokeFault(FaultClass f, std::uint64_t seed)
{
    Rng rng(deriveSeed(seed, std::uint64_t(f) + 1));
    switch (f) {
      case FaultClass::GarbageConfig:
        provokeGarbageConfig(rng);
        break;
      case FaultClass::CounterCorruption:
        provokeCounterCorruption(rng);
        break;
      case FaultClass::StuckMiss:
        provokeStuckMiss(rng);
        break;
    }
}

FaultReport
runFaultScenario(FaultClass f, std::uint64_t seed)
{
    FaultReport rep;
    rep.fault = f;
    rep.scenario = faultName(f);
    const int want = expectedExitCode(f);
    try {
        provokeFault(f, seed);
        std::ostringstream os;
        os << "completed without the expected "
           << "SimError (exit code " << want << ")";
        rep.detail = os.str();
    } catch (const SimError &e) {
        if (e.exitCode() == want) {
            rep.passed = true;
            rep.detail = std::string(e.kindName()) + ": " + e.what();
        } else {
            std::ostringstream os;
            os << "wrong error class " << e.kindName() << " (exit "
               << e.exitCode() << ", expected " << want << "): "
               << e.what();
            rep.detail = os.str();
        }
    } catch (const std::exception &e) {
        rep.detail = std::string("untyped failure: ") + e.what();
    }
    return rep;
}

} // namespace sim
} // namespace soefair
