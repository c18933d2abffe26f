#include "harness/runner.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "harness/env.hh"
#include "harness/retire_trace.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"
#include "stats/statfmt.hh"

namespace soefair
{
namespace harness
{

RunConfig
RunConfig::scaled(double factor) const
{
    soefair_assert(factor > 0.0, "non-positive scale factor");
    RunConfig rc = *this;
    auto scale = [factor](std::uint64_t v) {
        return std::uint64_t(double(v) * factor);
    };
    rc.warmupInstrs = scale(warmupInstrs);
    rc.timingWarmInstrs = scale(timingWarmInstrs);
    rc.measureInstrs = std::max<std::uint64_t>(
        1000, scale(measureInstrs));
    return rc;
}

double
parseRunScale(const std::string &text, const char *source)
{
    char *end = nullptr;
    const double scale = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(scale) ||
        scale < 0.01 || scale > 100.0)
        raiseError<InputError>(source, " must be a number in [0.01, "
                               "100], got '", text, "'");
    return scale;
}

RunConfig
RunConfig::fromEnv(const RunConfig &base)
{
    RunConfig rc = base;
    if (const auto ff = env::getBool("SOEFAIR_FASTFORWARD"))
        rc.fastForward = *ff;
    if (const auto scale = env::get("SOEFAIR_SCALE"))
        return rc.scaled(parseRunScale(*scale, "SOEFAIR_SCALE"));
    return rc;
}

namespace
{

/** Step until every thread has retired its target (or cap). */
bool
stepUntilRetired(System &sys, const std::vector<std::uint64_t> &targets,
                 std::uint64_t max_cycles)
{
    constexpr std::uint64_t chunk = 256;
    const Tick limit = sys.now() + max_cycles;
    while (sys.now() < limit) {
        sys.step(std::min<std::uint64_t>(chunk, limit - sys.now()));
        bool all = true;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            if (sys.core().retired(ThreadID(t)) < targets[t]) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

} // namespace

StRunResult
Runner::runSingleThread(const ThreadSpec &spec, const RunConfig &rc,
                        std::uint64_t window_instrs)
{
    System sys(mc, {spec});
    sys.setFastForward(rc.fastForward);
    sys.warmCaches(rc.warmupInstrs);

    std::unique_ptr<RetireTracer> tracer;
    if (!rc.retireTracePath.empty()) {
        tracer = std::make_unique<RetireTracer>(rc.retireTracePath);
        tracer->attach(sys.core());
    }

    soe::MissOnlyPolicy policy;
    soe::SoeEngine engine(mc.soe, policy, 1, &sys.stats());
    sys.start(&engine);

    // Timing warmup (excluded from statistics).
    bool ok = stepUntilRetired(sys, {rc.timingWarmInstrs},
                               rc.maxCycles);
    if (!ok)
        fatal("single-thread timing warmup hit the cycle cap for '",
              spec.profile.name, "'");

    engine.finalize(sys.now());
    const Tick startTick = sys.now();
    const std::uint64_t startInstrs = sys.core().retired(0);
    const std::uint64_t startMisses = engine.context(0).totals.misses;

    StRunResult res;
    res.windowInstrs = window_instrs;

    const std::uint64_t target = startInstrs + rc.measureInstrs;
    constexpr std::uint64_t chunk = 200;
    const Tick limit = sys.now() + rc.maxCycles;
    std::uint64_t nextWindow = window_instrs;
    while (sys.now() < limit && sys.core().retired(0) < target) {
        sys.step(chunk);
        if (window_instrs) {
            while (sys.core().retired(0) - startInstrs >= nextWindow) {
                res.cyclesAtInstr.push_back(sys.now() - startTick);
                nextWindow += window_instrs;
            }
        }
    }
    if (sys.core().retired(0) < target)
        fatal("single-thread run hit the cycle cap for '",
              spec.profile.name, "'");

    engine.finalize(sys.now());
    res.cycles = sys.now() - startTick;
    res.instrs = sys.core().retired(0) - startInstrs;
    res.misses = engine.context(0).totals.misses - startMisses;
    res.ipc = double(res.instrs) / double(res.cycles);
    res.ipm = double(res.instrs) /
        double(std::max<std::uint64_t>(res.misses, 1));
    // In a single-thread run the Cycles counter includes the miss
    // stalls (nothing switches the thread out), so the model's CPM
    // is recovered by subtracting Miss_lat per miss.
    const double perMissCycles = double(res.cycles) /
        double(std::max<std::uint64_t>(res.misses, 1));
    // Floored at one cycle: AnalyticSoe needs CPM > 0, and a thread
    // cannot retire between misses in less than a cycle.
    res.cpm = std::max(1.0, perMissCycles - mc.soe.missLatency);
    if (rc.statsDump)
        sys.dumpStats(*rc.statsDump);
    return res;
}

SoeRunResult
Runner::runSoe(const std::vector<ThreadSpec> &specs,
               soe::SchedulingPolicy &policy, const RunConfig &rc,
               bool record_windows)
{
    soefair_assert(specs.size() >= 2, "SOE run needs >= 2 threads");

    System sys(mc, specs);
    sys.setFastForward(rc.fastForward);
    sys.warmCaches(rc.warmupInstrs);

    std::unique_ptr<RetireTracer> tracer;
    if (!rc.retireTracePath.empty()) {
        tracer = std::make_unique<RetireTracer>(rc.retireTracePath);
        tracer->attach(sys.core());
    }

    soe::SoeEngine engine(mc.soe, policy, unsigned(specs.size()),
                          &sys.stats());
    SoeRunResult res;
    if (record_windows) {
        engine.setSampleHook([&res](const soe::SampleWindowRecord &w) {
            res.windows.push_back(w);
        });
    }
    sys.start(&engine);

    // Timing warmup.
    std::vector<std::uint64_t> warmTargets(specs.size(),
                                           rc.timingWarmInstrs);
    if (!stepUntilRetired(sys, warmTargets, rc.maxCycles)) {
        warn("SOE timing warmup hit the cycle cap; results cover a "
             "partial warmup");
    }

    engine.finalize(sys.now());
    const Tick startTick = sys.now();
    std::vector<std::uint64_t> startInstrs(specs.size());
    std::vector<std::uint64_t> startMisses(specs.size());
    std::vector<Tick> startRunCycles(specs.size());
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const auto &c = engine.context(ThreadID(t));
        startInstrs[t] = c.totals.instrs;
        startMisses[t] = c.totals.misses;
        startRunCycles[t] = c.totals.cycles;
    }
    const std::uint64_t startSwMiss = sys.core().switchesMiss.value();
    const std::uint64_t startSwForced =
        sys.core().switchesForced.value();
    const std::uint64_t startSwQuota = sys.core().switchesQuota.value();

    std::vector<std::uint64_t> targets(specs.size());
    for (std::size_t t = 0; t < specs.size(); ++t)
        targets[t] = sys.core().retired(ThreadID(t)) + rc.measureInstrs;

    res.timedOut = !stepUntilRetired(sys, targets, rc.maxCycles);
    engine.finalize(sys.now());

    res.cycles = sys.now() - startTick;
    res.threads.resize(specs.size());
    std::uint64_t totalInstrs = 0;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        const auto &c = engine.context(ThreadID(t));
        auto &out = res.threads[t];
        out.instrs = c.totals.instrs - startInstrs[t];
        out.misses = c.totals.misses - startMisses[t];
        out.runCycles = c.totals.cycles - startRunCycles[t];
        out.ipc = double(out.instrs) / double(res.cycles);
        totalInstrs += out.instrs;
    }
    res.ipcTotal = double(totalInstrs) / double(res.cycles);
    res.switchesMiss = sys.core().switchesMiss.value() - startSwMiss;
    res.switchesForced =
        sys.core().switchesForced.value() - startSwForced;
    res.switchesQuota = sys.core().switchesQuota.value() - startSwQuota;
    if (rc.statsDump)
        sys.dumpStats(*rc.statsDump);
    return res;
}

std::string
encodeStPayload(const StRunResult &r)
{
    using statistics::statfmt::full;
    statistics::statfmt::Writer os;
    os << full(r.ipc) << ' ' << r.cycles << ' ' << r.instrs << ' '
       << r.misses << ' ' << full(r.ipm) << ' ' << full(r.cpm);
    return os.str();
}

bool
decodeStPayload(const std::string &payload, StRunResult &r)
{
    std::istringstream is(payload);
    StRunResult out;
    is >> out.ipc >> out.cycles >> out.instrs >> out.misses >>
        out.ipm >> out.cpm;
    if (!is)
        return false;
    std::string trailing;
    if (is >> trailing)
        return false;
    r = std::move(out);
    return true;
}

std::string
encodeSoePayload(const SoeRunResult &r)
{
    using statistics::statfmt::full;
    statistics::statfmt::Writer os;
    os << r.threads.size();
    for (const auto &t : r.threads) {
        os << ' ' << full(t.ipc) << ' ' << t.instrs << ' '
           << t.misses << ' ' << t.runCycles;
    }
    os << ' ' << full(r.ipcTotal) << ' ' << r.cycles << ' '
       << r.switchesMiss << ' ' << r.switchesForced << ' '
       << r.switchesQuota << ' ' << (r.timedOut ? 1 : 0);
    return os.str();
}

bool
decodeSoePayload(const std::string &payload, SoeRunResult &r)
{
    std::istringstream is(payload);
    SoeRunResult out;
    std::size_t numThreads = 0;
    is >> numThreads;
    if (!is || numThreads == 0 || numThreads > 64)
        return false;
    out.threads.resize(numThreads);
    for (auto &t : out.threads)
        is >> t.ipc >> t.instrs >> t.misses >> t.runCycles;
    int timedOut = 0;
    is >> out.ipcTotal >> out.cycles >> out.switchesMiss >>
        out.switchesForced >> out.switchesQuota >> timedOut;
    if (!is)
        return false;
    std::string trailing;
    if (is >> trailing)
        return false;
    out.timedOut = timedOut != 0;
    r = std::move(out);
    return true;
}

} // namespace harness
} // namespace soefair
