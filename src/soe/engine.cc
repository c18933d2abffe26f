#include "soe/engine.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/errors.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace soe
{

SoeEngine::SoeEngine(const SoeConfig &config, SchedulingPolicy &pol,
                     unsigned num_threads,
                     statistics::Group *stats_parent)
    : statsGroup("soe", stats_parent),
      samples(&statsGroup, "samples", "delta windows sampled"),
      missEvents(&statsGroup, "missEvents",
                 "deduplicated head-of-ROB L2-miss events"),
      degradedWindows(&statsGroup, "degradedWindows",
                      "delta windows answered by the policy's "
                      "degraded fallback"),
      switchLatency(&statsGroup, "switchLatency",
                    "switch-out to first-retire cycles"),
      instrsPerSwitch(&statsGroup, "instrsPerSwitch",
                      "instructions retired per residency"),
      residencyCycles(&statsGroup, "residencyCycles",
                      "cycles per residency"),
      cfg(config),
      policy(pol),
      nextSampleTick(config.delta)
{
    soefair_assert(num_threads >= 1, "engine needs threads");
    soefair_assert(cfg.delta > 0, "delta must be positive");
    soefair_assert(cfg.maxCyclesQuota == 0 ||
                   cfg.maxCyclesQuota <= cfg.delta / num_threads,
                   "max cycles quota must be <= delta / numThreads "
                   "so every thread runs in each window");
    threads.resize(num_threads);
    lastEstimates.resize(num_threads);
    windowScratch.resize(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        threads[i].tid = ThreadID(i);
    auditReg = sim::AuditRegistration(
        "soeEngine", [this]() { auditThreadStates(); });
}

void
SoeEngine::auditThreadStates() const
{
    if (!sim::auditsEnabled())
        return;
    unsigned running = 0;
    for (const auto &c : threads)
        running += c.running ? 1 : 0;
    SOE_AUDIT(running <= 1, "SOE mode allows at most one runnable "
              "thread, found ", running);
}

ThreadContext &
SoeEngine::ctx(ThreadID tid)
{
    soefair_assert(tid >= 0 && std::size_t(tid) < threads.size(),
                   "bad tid ", tid);
    return threads[std::size_t(tid)];
}

const ThreadContext &
SoeEngine::context(ThreadID tid) const
{
    soefair_assert(tid >= 0 && std::size_t(tid) < threads.size(),
                   "bad tid ", tid);
    return threads[std::size_t(tid)];
}

ThreadID
SoeEngine::nextReady(ThreadID tid, Tick now) const
{
    const unsigned n = unsigned(threads.size());
    for (unsigned i = 1; i < n; ++i) {
        const unsigned cand = (unsigned(tid) + i) % n;
        if (threads[cand].ready(now))
            return ThreadID(cand);
    }
    return invalidThreadId;
}

ThreadID
SoeEngine::onHeadStall(ThreadID tid, InstSeqNum seq, Tick now,
                       Tick stall_resolve, bool is_l2_miss)
{
    // L1-miss head stalls are only switch events in the Section 6
    // extended mode.
    if (!is_l2_miss && !cfg.switchOnL1Miss)
        return invalidThreadId;

    ThreadContext &c = ctx(tid);
    if (seq != c.lastMissSeq) {
        // First time this head instruction is seen blocked: this is
        // the one counted miss of its overlapped group.
        c.lastMissSeq = seq;
        ++c.window.misses;
        ++c.totals.misses;
        ++missEvents;
        // Monitor the event latency (Section 6: variable-latency
        // events); the remaining stall at detection approximates
        // the post-switch-out latency the model needs.
        if (stall_resolve > now) {
            windowStallCycles += stall_resolve - now;
            ++windowStallEvents;
        }
    }

    if (!policy.switchOnMiss())
        return invalidThreadId;

    ThreadID next = nextReady(tid, now);
    if (next == invalidThreadId)
        return invalidThreadId; // nobody ready: wait out the miss

    c.blockedUntil = stall_resolve;
    return next;
}

bool
SoeEngine::onRetire(ThreadID tid, Tick now)
{
    ThreadContext &c = ctx(tid);
    ++c.window.instrs;
    ++c.totals.instrs;
    ++c.instrsThisResidency;
    if (c.awaitingFirstRetire) {
        c.awaitingFirstRetire = false;
        c.residencyStart = now;
        if (lastSwitchStart != 0 && now >= lastSwitchStart) {
            switchLatency.sample(double(now - lastSwitchStart));
            lastSwitchStart = 0;
        }
    }
    return c.deficit.onRetire();
}

bool
SoeEngine::onCycle(ThreadID tid, Tick now)
{
    // The cycle counter every window measurement hangs off must
    // never step backwards.
    SOE_AUDIT(now >= prevCycleTick,
              "cycle counter moved backwards: ", now, " after ",
              prevCycleTick);
    if (sim::auditsEnabled())
        prevCycleTick = now;

    if (now >= nextSampleTick) {
        sample(now);
        nextSampleTick += cfg.delta;
    }

    const ThreadContext &c = ctx(tid);
    // onSwitchIn is stamped at the end of the drain, which can be a
    // few cycles in the future relative to this call.
    if (!c.running || now < c.switchInTick)
        return false;

    const Tick tsQuota = policy.cycleQuota();
    if (tsQuota != 0 && now - c.switchInTick >= tsQuota)
        return true;

    if (cfg.maxCyclesQuota != 0 &&
        now - c.switchInTick >= cfg.maxCyclesQuota) {
        return true;
    }
    return false;
}

Tick
SoeEngine::nextWakeTick(ThreadID tid, Tick now) const
{
    // onCycle() for this tick already ran, so a due sample has fired
    // and the boundary must lie strictly ahead; fast-forward relies
    // on this to never jump a sample (the watchdog horizon is a
    // whole number of sample windows, so it is covered too).
    SOE_AUDIT(nextSampleTick > now,
              "fast-forward queried with a sample boundary due: next ",
              nextSampleTick, " at tick ", now);
    Tick wake = nextSampleTick;

    // Residency quotas expire relative to the switch-in stamp; the
    // quota checks in onCycle() compare against exactly these ticks.
    // An expiry already in the past stays in the past (the switch
    // attempt it triggers found no ready thread and is a pure no-op
    // each cycle), so only future expiries gate the jump.
    const ThreadContext &c = context(tid);
    if (c.running) {
        const Tick tsQuota = policy.cycleQuota();
        if (tsQuota != 0 && c.switchInTick + tsQuota > now)
            wake = std::min(wake, c.switchInTick + tsQuota);
        if (cfg.maxCyclesQuota != 0 &&
            c.switchInTick + cfg.maxCyclesQuota > now) {
            wake = std::min(wake, c.switchInTick + cfg.maxCyclesQuota);
        }
    }

    // A blocked thread turning ready changes what nextReady() and
    // onHeadStall() would answer.
    for (const auto &t : threads) {
        if (t.blockedUntil > now)
            wake = std::min(wake, t.blockedUntil);
    }
    return wake;
}

void
SoeEngine::closeResidency(ThreadContext &c, Tick now)
{
    if (!c.awaitingFirstRetire) {
        const Tick ran = now - c.residencyStart;
        c.window.cycles += ran;
        c.totals.cycles += ran;
        c.residencyStart = now;
    }
}

void
SoeEngine::onSwitchOut(ThreadID tid, Tick now)
{
    ThreadContext &c = ctx(tid);
    closeResidency(c, now);
    instrsPerSwitch.sample(c.instrsThisResidency);
    if (now >= c.switchInTick)
        residencyCycles.sample(now - c.switchInTick);
    c.running = false;
    c.awaitingFirstRetire = true;
    lastSwitchStart = now;
}

void
SoeEngine::onSwitchIn(ThreadID tid, Tick now)
{
    // The outgoing thread must already be switched out: SOE owns a
    // single pipeline, so a still-runnable thread here means the
    // drain logic lost track of somebody.
    if (sim::auditsEnabled()) {
        for (const auto &t : threads) {
            SOE_AUDIT(!t.running, "thread ", t.tid,
                      " still runnable at switch-in of ", tid);
        }
    }
    ThreadContext &c = ctx(tid);
    c.running = true;
    c.awaitingFirstRetire = true;
    c.switchInTick = now;
    c.instrsThisResidency = 0;
    ++c.windowSwitchIns;
    c.deficit.switchIn();
}

void
SoeEngine::auditWindow(Tick now) const
{
    if (!sim::auditsEnabled())
        return;

    SOE_AUDIT(now >= lastSampleTick,
              "sample tick moved backwards: ", now, " after ",
              lastSampleTick);

    // Residencies are disjoint (one pipeline), so the per-thread run
    // cycles of the window can sum to at most the elapsed span.
    std::uint64_t cyclesSum = 0;
    for (const auto &c : threads)
        cyclesSum += c.window.cycles;
    SOE_AUDIT(cyclesSum <= now - lastSampleTick,
              "window run cycles ", cyclesSum,
              " exceed the window span ", now - lastSampleTick);

    // Starvation freedom (Section 4.1): with the max-cycles residency
    // quota active and honoured, round-robin rotation puts every
    // thread on the pipeline within each delta window unless it spent
    // part of the window blocked on a miss. Direct-driven engines
    // (unit tests) may ignore the quota; an over-resident thread
    // reveals that, and the audit stands down.
    if (cfg.maxCyclesQuota == 0)
        return;
    bool anyActivity = false;
    for (const auto &c : threads) {
        if (c.running && now > c.switchInTick &&
            now - c.switchInTick > cfg.maxCyclesQuota)
            return;
        anyActivity = anyActivity || c.running ||
            c.windowSwitchIns > 0;
    }
    // An engine nothing ran on this window (e.g. driven only for
    // quota recalculation) starves nobody.
    if (!anyActivity)
        return;
    for (const auto &c : threads) {
        SOE_AUDIT(c.windowSwitchIns > 0 || c.running ||
                  c.blockedUntil > lastSampleTick,
                  "thread ", c.tid,
                  " was never scheduled in a whole delta window");
    }
}

void
SoeEngine::sample(Tick now)
{
    ++samples;

    // Fold the active thread's partial residency into the window so
    // Cycles_j covers the whole delta period.
    for (auto &c : threads) {
        if (c.running)
            closeResidency(c, now);
    }

    // End-of-window synchronization point: audit this engine's
    // window invariants and run every registered structural sweep
    // (caches, store buffer, ...). No-ops in optimized builds.
    auditWindow(now);
    sim::InvariantAuditor::global().runAll();

    std::vector<core::HwCounters> &window = windowScratch;
    for (std::size_t j = 0; j < threads.size(); ++j)
        window[j] = threads[j].window;

    // No-progress watchdog: an engine with a resident thread that
    // retires nothing for K whole delta windows is livelocked
    // (stuck miss, switch storm) — fail with a diagnostic instead
    // of burning the cycle cap silently.
    checkProgress(window, now);

    lastMeasuredMissLat = windowStallEvents
        ? double(windowStallCycles) / double(windowStallEvents)
        : 0.0;
    windowStallCycles = 0;
    windowStallEvents = 0;

    const std::vector<double> quotas =
        policy.recompute(window, lastMeasuredMissLat);
    soefair_assert(quotas.size() == threads.size(),
                   "policy returned wrong quota count");
    if (policy.degraded())
        ++degradedWindows;
    if (sim::auditsEnabled()) {
        for (double q : quotas) {
            SOE_AUDIT(q > 0.0 && !std::isnan(q),
                      "policy produced a non-positive IPSw quota ", q);
        }
    }

    // Refresh the engine's own estimates (used for reporting even
    // when the policy ignores them).
    for (std::size_t j = 0; j < threads.size(); ++j) {
        core::WindowEstimate e =
            core::estimateWindow(window[j], cfg.missLatency);
        if (!e.empty)
            lastEstimates[j] = e;
    }

    if (sampleHook) {
        SampleWindowRecord rec;
        rec.endTick = now;
        rec.windowCycles = now - lastSampleTick;
        rec.measuredMissLat = lastMeasuredMissLat;
        rec.threads.resize(threads.size());
        for (std::size_t j = 0; j < threads.size(); ++j) {
            auto &t = rec.threads[j];
            t.instrs = window[j].instrs;
            t.cycles = window[j].cycles;
            t.misses = window[j].misses;
            t.estIpcSt = lastEstimates[j].ipcSt;
            t.ipcSoe = rec.windowCycles
                ? double(window[j].instrs) / double(rec.windowCycles)
                : 0.0;
            t.quota = quotas[j];
        }
        sampleHook(rec);
    }

    for (std::size_t j = 0; j < threads.size(); ++j) {
        threads[j].quota = quotas[j];
        threads[j].deficit.setQuota(quotas[j]);
        threads[j].window.reset();
        threads[j].windowSwitchIns = 0;
    }
    lastSampleTick = now;
}

void
SoeEngine::checkProgress(const std::vector<core::HwCounters> &window,
                         Tick now)
{
    std::uint64_t retired = 0;
    for (const auto &w : window)
        retired += w.instrs;
    // Only windows the engine was actually driving count: a window
    // with no resident thread and no switch-ins (e.g. an engine
    // sampled only for quota recalculation) starves nobody.
    bool active = false;
    for (const auto &c : threads)
        active = active || c.running || c.windowSwitchIns > 0;

    if (!active || retired > 0) {
        noProgressWindows = 0;
        return;
    }
    if (++noProgressWindows >= watchdogWindowLimit)
        watchdogFire(now);
}

void
SoeEngine::watchdogFire(Tick now) const
{
    std::ostringstream diag;
    diag << "no retirement progress for " << noProgressWindows
         << " delta windows (" << noProgressWindows * cfg.delta
         << " cycles, now=" << now << "); per-thread state:";
    for (const auto &c : threads) {
        diag << "\n  thread " << c.tid
             << ": running=" << (c.running ? "yes" : "no")
             << " blockedUntil=" << c.blockedUntil
             << (c.blockedUntil > now ? " (in the future)" : "")
             << " quota=" << c.quota
             << " windowSwitchIns=" << c.windowSwitchIns
             << " window{instrs=" << c.window.instrs
             << " cycles=" << c.window.cycles
             << " misses=" << c.window.misses << "}"
             << " totals{instrs=" << c.totals.instrs
             << " misses=" << c.totals.misses << "}";
    }
    raiseError<soefair::WatchdogTimeout>(diag.str());
}

void
SoeEngine::finalize(Tick now)
{
    for (auto &c : threads) {
        if (c.running)
            closeResidency(c, now);
    }
    // End-of-run sweep over every registered structural audit.
    sim::InvariantAuditor::global().runAll();
}

} // namespace soe
} // namespace soefair
