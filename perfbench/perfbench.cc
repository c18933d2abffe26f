/**
 * @file
 * Benchmark probe for the soefair simulator. It times calls into the
 * simulator's public functions from outside the program and prints
 * one JSON object on stdout; perfbench/run.py turns that into the
 * benchmark's metrics. See perfbench/README.md.
 *
 *   perfbench soe <benchA:benchB> <seed> <seconds> <trace>
 *       SOE runs of one pair under FairnessPolicy at F = 0.5, at
 *       soeRunScale of the default run length, over soeInputs
 *       thread-seed pairs derived from `seed`, round-robin, until
 *       every input ran and the next op would end past `seconds`.
 *       trace 0: every op is a full Runner::runSoe.
 *       trace 1: ops alternate between Runner::runSoe and a replica
 *       of it made of public System calls, each wrapped in a span;
 *       then WorkloadGenerator::next and Hierarchy::warm* are timed
 *       alone.
 *   perfbench setup
 *       The set-up `soefair_cli sweep` does before its first job
 *       (campaign construction and decomposition), repeated; one
 *       time per repeat.
 *   perfbench jobs
 *       Every SupervisorJob::run(1) body of the campaign that
 *       `soefair_cli sweep` runs by default (16 pairs x 4 levels),
 *       in-process and timed one by one (SOEFAIR_SCALE applies, as in
 *       the CLI), then SweepCampaign::aggregate and the CSV.
 *   perfbench fingerprint
 *       How this binary was built.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hh"
#include "harness/jsonl.hh"
#include "harness/machine_config.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/system.hh"
#include "mem/hierarchy.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"
#include "sim/random.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"
#include "stats/statfmt.hh"
#include "stats/stats.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace soefair;
using namespace soefair::harness;

namespace
{

/** Target fairness of both SOE workloads. */
constexpr double targetF = 0.5;

/**
 * Thread-seed pairs timed per SOE run. Simulated work, and so run
 * time, varies ~23% between inputs, so a run needs many of them, or
 * the seed rather than the code decides the number.
 */
constexpr unsigned soeInputs = 32;

/** Share of the default run length (as SOEFAIR_SCALE): quarter-length
 *  ops fit every input into one run at least once. */
constexpr double soeRunScale = 0.25;

/** Repeats of the campaign set-up; the median is reported. */
constexpr int setupRepeats = 1001;

using Clock = std::chrono::steady_clock;
const Clock::time_point epoch = Clock::now();

/** Host seconds since the process started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::string
hex64(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + jsonlEscape(s) + "\"";
}

/** Minimal JSON object writer (keys in insertion order). */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, statistics::statfmt::full(v));
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body += (body.empty() ? "" : ",") + jsonString(key) + ":" + json;
        return *this;
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

/** One timed interval around a call into a layer. */
struct Span
{
    const char *name = "";
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
};

/** In-memory span recorder; spans nest by call order. */
class Tracer
{
  public:
    void
    open(const char *name)
    {
        spans.push_back({name, stack.empty() ? -1 : stack.back(), now(),
                         0.0});
        stack.push_back(int(spans.size()) - 1);
    }

    void
    close()
    {
        spans[std::size_t(stack.back())].end = now();
        stack.pop_back();
    }

    const std::vector<Span> &all() const { return spans; }

    /** Per span name: calls, total seconds and self seconds. */
    std::map<std::string, std::vector<double>>
    selfTimes() const
    {
        std::vector<double> childTime(spans.size(), 0.0);
        for (const auto &s : spans) {
            if (s.parent >= 0)
                childTime[std::size_t(s.parent)] += s.end - s.start;
        }
        std::map<std::string, std::vector<double>> out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            auto &acc = out[spans[i].name];
            acc.resize(3, 0.0);
            const double dur = spans[i].end - spans[i].start;
            acc[0] += 1;
            acc[1] += dur;
            acc[2] += dur - childTime[i];
        }
        return out;
    }

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** RAII span; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name) : tracer(t)
    {
        if (tracer)
            tracer->open(name);
    }
    ~Scope()
    {
        if (tracer)
            tracer->close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
};

/**
 * Forwarding policy. The engine first consults its policy on the
 * first simulated cycle, so the first call marks the end of set-up
 * (System construction and warmCaches) inside Runner::runSoe. It
 * also times every recompute call.
 */
class ProbePolicy : public soe::SchedulingPolicy
{
  public:
    ProbePolicy(soe::SchedulingPolicy &wrapped, Tracer *t)
        : inner(wrapped), tracer(t)
    {}

    std::string name() const override { return inner.name(); }

    bool
    switchOnMiss() const override
    {
        mark();
        return inner.switchOnMiss();
    }

    Tick
    cycleQuota() const override
    {
        mark();
        return inner.cycleQuota();
    }

    std::vector<double>
    recompute(const std::vector<core::HwCounters> &window,
              double measured_miss_lat) override
    {
        mark();
        Scope span(tracer, "core.FairnessPolicy.recompute");
        const double t0 = now();
        auto quotas = inner.recompute(window, measured_miss_lat);
        recomputeSeconds += now() - t0;
        ++recomputeCalls;
        return quotas;
    }

    bool degraded() const override { return inner.degraded(); }

    double firstCallAt() const { return firstCall; }
    double recomputeSeconds = 0.0;
    std::uint64_t recomputeCalls = 0;

  private:
    void
    mark() const
    {
        if (firstCall < 0.0)
            firstCall = now();
    }

    soe::SchedulingPolicy &inner;
    Tracer *tracer;
    mutable double firstCall = -1.0;
};

/** Parse a stats dump ("name value # description") into a map. */
std::map<std::string, double>
parseStats(const std::string &dump)
{
    std::map<std::string, double> out;
    std::istringstream is(dump);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name;
        double value = 0.0;
        if (ls >> name >> value)
            out[name] = value;
    }
    return out;
}

std::string
statsJson(const std::map<std::string, double> &stats)
{
    JsonObject o;
    for (const auto &[k, v] : stats)
        o.num(k, v);
    return o.text();
}

/** What one SOE op observed. */
struct SoeOp
{
    SoeRunResult res;
    std::string statsDump;
    double wall = 0.0;
    double setup = 0.0;
    double step = 0.0;
    double warm = 0.0;
    std::uint64_t ffJumps = 0;
    std::uint64_t ffCycles = 0;
    Tick totalCycles = 0;
    std::uint64_t opsGenerated = 0;
    double recomputeSeconds = 0.0;
    std::uint64_t recomputeCalls = 0;
};

/** The full run through Runner, timed from outside. */
SoeOp
runnerOp(Runner &runner, const std::vector<ThreadSpec> &specs,
         const RunConfig &base)
{
    soe::FairnessPolicy fair(targetF, runner.machine().soe.missLatency,
                             unsigned(specs.size()));
    ProbePolicy probe(fair, nullptr);
    std::ostringstream dump;
    RunConfig rc = base;
    rc.statsDump = &dump;

    SoeOp op;
    const double t0 = now();
    op.res = runner.runSoe(specs, probe, rc);
    const double t1 = now();
    op.wall = t1 - t0;
    op.setup = probe.firstCallAt() - t0;
    op.step = t1 - probe.firstCallAt();
    op.statsDump = dump.str();
    op.recomputeSeconds = probe.recomputeSeconds;
    op.recomputeCalls = probe.recomputeCalls;
    return op;
}

/** Step until every thread retired its target (Runner's loop). */
bool
stepUntilRetired(System &sys, const std::vector<std::uint64_t> &targets,
                 std::uint64_t max_cycles, Tracer &tr, double &step_s)
{
    constexpr std::uint64_t chunk = 256;
    const Tick limit = sys.now() + max_cycles;
    while (sys.now() < limit) {
        {
            Scope span(&tr, "harness.System.step");
            const double t0 = now();
            sys.step(std::min<std::uint64_t>(chunk, limit - sys.now()));
            step_s += now() - t0;
        }
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

/**
 * Runner::runSoe replayed call for call through System's public
 * API, with a span around each call. Its payload and stats dump are
 * checked against Runner's byte for byte.
 */
SoeOp
tracedOp(const MachineConfig &mc, const std::vector<ThreadSpec> &specs,
         const RunConfig &rc, Tracer &tr)
{
    const unsigned n = unsigned(specs.size());
    soe::FairnessPolicy fair(targetF, mc.soe.missLatency, n);
    ProbePolicy probe(fair, &tr);
    SoeOp op;
    const double t0 = now();
    Scope root(&tr, "harness.Runner.runSoe");

    std::unique_ptr<System> sysPtr;
    {
        Scope span(&tr, "harness.System.System");
        sysPtr = std::make_unique<System>(mc, specs);
    }
    System &sys = *sysPtr;
    sys.setFastForward(rc.fastForward);
    {
        Scope span(&tr, "harness.System.warmCaches");
        const double w0 = now();
        sys.warmCaches(rc.warmupInstrs);
        op.warm = now() - w0;
    }
    std::unique_ptr<soe::SoeEngine> enginePtr;
    {
        Scope span(&tr, "soe.SoeEngine.SoeEngine");
        enginePtr = std::make_unique<soe::SoeEngine>(mc.soe, probe, n,
                                                     &sys.stats());
    }
    soe::SoeEngine &engine = *enginePtr;
    {
        Scope span(&tr, "harness.System.start");
        sys.start(&engine);
    }

    SoeRunResult &res = op.res;
    std::vector<std::uint64_t> warmTargets(n, rc.timingWarmInstrs);
    stepUntilRetired(sys, warmTargets, rc.maxCycles, tr, op.step);
    {
        Scope span(&tr, "soe.SoeEngine.finalize");
        engine.finalize(sys.now());
    }
    const Tick startTick = sys.now();
    std::vector<std::uint64_t> startInstrs(n), startMisses(n);
    std::vector<Tick> startRunCycles(n);
    for (unsigned t = 0; t < n; ++t) {
        const auto &c = engine.context(ThreadID(t));
        startInstrs[t] = c.totals.instrs;
        startMisses[t] = c.totals.misses;
        startRunCycles[t] = c.totals.cycles;
    }
    const std::uint64_t swMiss = sys.core().switchesMiss.value();
    const std::uint64_t swForced = sys.core().switchesForced.value();
    const std::uint64_t swQuota = sys.core().switchesQuota.value();
    std::vector<std::uint64_t> targets(n);
    for (unsigned t = 0; t < n; ++t)
        targets[t] = sys.core().retired(ThreadID(t)) + rc.measureInstrs;

    res.timedOut =
        !stepUntilRetired(sys, targets, rc.maxCycles, tr, op.step);
    {
        Scope span(&tr, "soe.SoeEngine.finalize");
        engine.finalize(sys.now());
    }
    res.cycles = sys.now() - startTick;
    res.threads.resize(n);
    std::uint64_t totalInstrs = 0;
    for (unsigned t = 0; t < n; ++t) {
        const auto &c = engine.context(ThreadID(t));
        auto &out = res.threads[t];
        out.instrs = c.totals.instrs - startInstrs[t];
        out.misses = c.totals.misses - startMisses[t];
        out.runCycles = c.totals.cycles - startRunCycles[t];
        out.ipc = double(out.instrs) / double(res.cycles);
        totalInstrs += out.instrs;
    }
    res.ipcTotal = double(totalInstrs) / double(res.cycles);
    res.switchesMiss = sys.core().switchesMiss.value() - swMiss;
    res.switchesForced = sys.core().switchesForced.value() - swForced;
    res.switchesQuota = sys.core().switchesQuota.value() - swQuota;
    {
        Scope span(&tr, "harness.System.dumpStats");
        std::ostringstream dump;
        sys.dumpStats(dump);
        op.statsDump = dump.str();
    }
    op.wall = now() - t0;
    op.setup = probe.firstCallAt() - t0;
    op.ffJumps = sys.fastForwardJumps();
    op.ffCycles = sys.fastForwardCycles();
    op.totalCycles = sys.now();
    for (unsigned t = 0; t < n; ++t)
        op.opsGenerated += sys.generator(ThreadID(t)).generated();
    op.recomputeSeconds = probe.recomputeSeconds;
    op.recomputeCalls = probe.recomputeCalls;
    return op;
}

std::string
opJson(const SoeOp &op, std::size_t input, bool traced)
{
    const std::string payload = encodeSoePayload(op.res);
    const auto stats = parseStats(op.statsDump);
    JsonObject o;
    o.num("input", double(input))
        .num("traced", traced ? 1 : 0)
        .num("wall_s", op.wall)
        .num("setup_s", op.setup)
        .num("step_s", op.step)
        .num("timed_out", op.res.timedOut ? 1 : 0)
        .str("digest", hex64(fnv1a64(payload + "\n" + op.statsDump)))
        .num("retired_ops", stats.count("system.core.retiredOps")
                                ? stats.at("system.core.retiredOps")
                                : 0.0)
        .num("recompute_s", op.recomputeSeconds)
        .num("recompute_calls", double(op.recomputeCalls));
    if (traced) {
        o.num("warm_s", op.warm)
            .num("ff_jumps", double(op.ffJumps))
            .num("ff_cycles", double(op.ffCycles))
            .num("total_cycles", double(op.totalCycles))
            .num("ops_generated", double(op.opsGenerated))
            .num("ipc_total", op.res.ipcTotal)
            .raw("stats", statsJson(stats));
    }
    return o.text();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** WorkloadGenerator::next timed alone, ns per op (median of 5). */
double
timeGenerator(const std::vector<ThreadSpec> &specs,
              std::uint64_t ops_per_thread, std::uint64_t &sink)
{
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        std::vector<std::unique_ptr<workload::WorkloadGenerator>> gens;
        for (std::size_t t = 0; t < specs.size(); ++t) {
            gens.push_back(std::make_unique<workload::WorkloadGenerator>(
                specs[t].profile, ThreadID(t), specs[t].seed));
        }
        const double t0 = now();
        for (auto &g : gens) {
            for (std::uint64_t i = 0; i < ops_per_thread; ++i)
                sink ^= g->next().pc;
        }
        samples.push_back((now() - t0) * 1e9 /
                          double(ops_per_thread * gens.size()));
    }
    return median(samples);
}

/**
 * Hierarchy::warmFetch / warmData replayed from pre-generated ops in
 * System::warmCaches' interleaving, ns per access (median of 5).
 */
double
timeWarmAccesses(const MachineConfig &mc,
                 const std::vector<ThreadSpec> &specs,
                 std::uint64_t ops_per_thread)
{
    constexpr std::uint64_t chunk = 4096;
    std::vector<std::unique_ptr<workload::WorkloadGenerator>> gens;
    for (std::size_t t = 0; t < specs.size(); ++t) {
        gens.push_back(std::make_unique<workload::WorkloadGenerator>(
            specs[t].profile, ThreadID(t), specs[t].seed));
    }
    std::vector<std::pair<ThreadID, isa::MicroOp>> ops;
    for (std::uint64_t done = 0; done < ops_per_thread; done += chunk) {
        for (std::size_t t = 0; t < gens.size(); ++t) {
            const std::uint64_t k = std::min(chunk, ops_per_thread - done);
            for (std::uint64_t i = 0; i < k; ++i)
                ops.emplace_back(ThreadID(t), gens[t]->next());
        }
    }

    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        EventQueue eq;
        statistics::Group root("bench");
        mem::Hierarchy hier(mc.mem, eq, &root);
        std::uint64_t accesses = 0;
        const double t0 = now();
        for (const auto &[tid, op] : ops) {
            hier.warmFetch(tid, op.pc);
            ++accesses;
            if (op.isLoad() || op.isStore()) {
                hier.warmData(tid, op.memAddr, op.isStore());
                ++accesses;
            }
        }
        samples.push_back((now() - t0) * 1e9 / double(accesses));
    }
    return median(samples);
}

int
cmdSoe(const std::string &pair, std::uint64_t seed, double seconds,
       bool trace)
{
    const auto colon = pair.find(':');
    if (colon == std::string::npos) {
        std::cerr << "perfbench soe: pair must be benchA:benchB\n";
        return 2;
    }
    const std::string benchA = pair.substr(0, colon);
    const std::string benchB = pair.substr(colon + 1);
    const MachineConfig mc = MachineConfig::benchDefault();
    Runner runner(mc);
    const RunConfig rc = RunConfig{}.scaled(soeRunScale);

    // The reference input runs the pair at the seeds the evaluation
    // campaign gives it; its fairness and speedup are the exact
    // metrics, the same for every benchmark seed.
    const std::vector<ThreadSpec> refSpecs = {
        ThreadSpec::benchmark(benchA, pairSeed(0)),
        ThreadSpec::benchmark(benchB,
                              benchA == benchB ? pairSeed(1) : pairSeed(0)),
    };
    std::vector<double> speedups;
    double stSum = 0.0;
    const SoeOp ref = runnerOp(runner, refSpecs, rc);
    for (std::size_t t = 0; t < refSpecs.size(); ++t) {
        const double stIpc = runner.runSingleThread(refSpecs[t], rc).ipc;
        speedups.push_back(ref.res.threads[t].ipc / stIpc);
        stSum += stIpc;
    }
    const std::string refJson =
        JsonObject()
            .num("ok", ref.res.timedOut ? 0 : 1)
            .str("digest", hex64(fnv1a64(encodeSoePayload(ref.res) + "\n" +
                                         ref.statsDump)))
            .num("fairness", core::fairnessOfSpeedups(speedups))
            .num("speedup_over_st",
                 ref.res.ipcTotal / (stSum / double(refSpecs.size())))
            .text();

    // Timed input i runs the pair at thread seeds derived from the
    // benchmark seed.
    std::vector<std::vector<ThreadSpec>> ins(soeInputs);
    std::vector<std::string> inputJson;
    for (unsigned i = 0; i < soeInputs; ++i) {
        ins[i] = {
            ThreadSpec::benchmark(benchA, deriveSeed(seed, 2 * i + 1)),
            ThreadSpec::benchmark(benchB, deriveSeed(seed, 2 * i + 2)),
        };
        inputJson.push_back(
            JsonObject()
                .str("seed_a", std::to_string(ins[i][0].seed))
                .str("seed_b", std::to_string(ins[i][1].seed))
                .text());
    }

    // Untraced runs stop, once every input ran, before an op that
    // would end past `seconds` at the mean op time so far; run.py
    // weighs each input the same however often it ran. Traced runs
    // alternate a Runner pass and a traced pass over the inputs and
    // stop after a whole pair.
    Tracer tracer;
    std::vector<std::string> opsJson;
    const std::size_t round = trace ? 2 * soeInputs : soeInputs;
    const double start = now();
    for (std::size_t k = 0;; ++k) {
        const double elapsed = now() - start;
        if (k >= round && (trace ? k % round == 0 && elapsed >= seconds
                                 : elapsed * double(k + 1) / double(k) >
                                       seconds))
            break;
        const std::size_t i = k % soeInputs;
        const bool traced = trace && (k / soeInputs) % 2 == 1;
        const SoeOp op = traced ? tracedOp(mc, ins[i], rc, tracer)
                                : runnerOp(runner, ins[i], rc);
        opsJson.push_back(opJson(op, i, traced));
    }

    JsonObject out;
    out.raw("reference", refJson)
        .raw("inputs", jsonArray(inputJson))
        .raw("ops", jsonArray(opsJson));
    if (trace) {
        std::uint64_t sink = 0;
        const std::uint64_t genOps = 200 * 1000;
        std::vector<double> gen, warm;
        for (const auto &in : ins) {
            gen.push_back(timeGenerator(in, genOps, sink));
            warm.push_back(timeWarmAccesses(mc, in, rc.warmupInstrs));
        }
        std::vector<std::string> selfJson, spanJson;
        for (const auto &[name, acc] : tracer.selfTimes()) {
            selfJson.push_back(JsonObject()
                                   .str("name", name)
                                   .num("calls", acc[0])
                                   .num("total_s", acc[1])
                                   .num("self_s", acc[2])
                                   .text());
        }
        // Every span of the first traced op (its root and children).
        const auto &spans = tracer.all();
        for (std::size_t s = 0; s < spans.size(); ++s) {
            if (s > 0 && spans[s].parent < 0)
                break;
            spanJson.push_back(JsonObject()
                                   .num("id", double(s))
                                   .num("parent", spans[s].parent)
                                   .str("name", spans[s].name)
                                   .num("start_s", spans[s].start)
                                   .num("end_s", spans[s].end)
                                   .text());
        }
        out.num("gen_ns_per_op", median(gen))
            .num("warm_ns_per_access", median(warm))
            // Printed so the timed next() calls cannot be elided.
            .num("gen_sink", double(sink & 1))
            .raw("self_times", jsonArray(selfJson))
            .raw("spans", jsonArray(spanJson));
    }
    std::cout << out.text() << "\n";
    return 0;
}

int
cmdJobs()
{
    const SweepCampaign campaign(MachineConfig::benchDefault(),
                                 RunConfig::fromEnv(),
                                 workload::spec::evaluationPairs(),
                                 EvaluationSweep::standardLevels());
    const double d0 = now();
    const auto jobs = campaign.jobs();
    const double decompose = now() - d0;

    std::vector<JobOutcome> outcomes;
    std::vector<std::string> jobJson;
    for (const auto &job : jobs) {
        const double t0 = now();
        JobOutcome o;
        o.id = job.id;
        o.payload = job.run(1);
        const double t1 = now();
        o.done = true;
        o.attempts = 1;
        jobJson.push_back(JsonObject()
                              .str("id", o.id)
                              .num("s", t1 - t0)
                              .str("payload", o.payload)
                              .text());
        outcomes.push_back(std::move(o));
    }

    std::vector<double> aggregate;
    CampaignResult agg;
    for (int rep = 0; rep < 9; ++rep) {
        const double t0 = now();
        agg = campaign.aggregate(outcomes);
        aggregate.push_back(now() - t0);
    }
    std::ostringstream csv;
    writeCampaignCsv(csv, agg);

    std::cout << JsonObject()
                     .num("decompose_s", decompose)
                     .num("aggregate_s", median(aggregate))
                     .raw("jobs", jsonArray(jobJson))
                     .str("csv", csv.str())
                     .text()
              << "\n";
    return 0;
}

/**
 * The CLI sweep's set-up before its first job, timed per repeat:
 * campaign construction and decomposition into jobs. Journal
 * creation is left out: its fsync takes what the disk under the
 * checkout gives (0.2-2 ms between runs), not what the code does.
 */
int
cmdSetup()
{
    std::vector<std::string> times;
    std::size_t jobCount = 0;
    for (int rep = 0; rep < setupRepeats; ++rep) {
        const double t0 = now();
        const SweepCampaign campaign(MachineConfig::benchDefault(),
                                     RunConfig::fromEnv(),
                                     workload::spec::evaluationPairs(),
                                     EvaluationSweep::standardLevels());
        jobCount = campaign.jobs().size();
        times.push_back(statistics::statfmt::full(now() - t0));
    }
    std::cout << JsonObject()
                     .num("jobs", double(jobCount))
                     .raw("setup_s", jsonArray(times))
                     .text()
              << "\n";
    return 0;
}

int
cmdFingerprint()
{
    bool asan = false, tsan = false, ubsan = false;
#if defined(__SANITIZE_ADDRESS__)
    asan = true;
#endif
#if defined(__SANITIZE_THREAD__)
    tsan = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
    asan = true;
#endif
#if __has_feature(thread_sanitizer)
    tsan = true;
#endif
#if __has_feature(undefined_behavior_sanitizer)
    ubsan = true;
#endif
#endif
    const bool audit = sim::auditsEnabled();
    bool optimized = false;
#if defined(__OPTIMIZE__)
    optimized = true;
#endif
    std::cout << JsonObject()
                     .str("compiler", __VERSION__)
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .num("optimized", optimized)
                     .num("audit", audit)
                     .num("asan", asan)
                     .num("tsan", tsan)
                     .num("ubsan", ubsan)
                     .text()
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 5 && args[0] == "soe") {
        return cmdSoe(args[1], std::strtoull(args[2].c_str(), nullptr, 10),
                      std::atof(args[3].c_str()), args[4] == "1");
    }
    if (args.size() == 1 && args[0] == "jobs")
        return cmdJobs();
    if (args.size() == 1 && args[0] == "setup")
        return cmdSetup();
    if (args.size() == 1 && args[0] == "fingerprint")
        return cmdFingerprint();
    std::cerr << "usage: perfbench soe <a:b> <seed> <seconds> <trace 0|1>\n"
                 "       perfbench jobs\n"
                 "       perfbench setup\n"
                 "       perfbench fingerprint\n";
    return 2;
}
