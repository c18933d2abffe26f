/**
 * @file
 * Machine-readable performance report: runs the end-to-end scenarios
 * from perf_scenarios and emits `BENCH_perf.json` — items/sec per
 * benchmark plus a machine fingerprint — so the repo's perf
 * trajectory is diffable across commits (tools/bench_compare.py).
 *
 * Usage: perf_report [--items N] [--out FILE]
 *
 *   --items N   instructions per end-to-end scenario (default
 *               200000; the miss-heavy pair uses N/10 because its
 *               ff-off leg simulates ~250 cycles per instruction).
 *   --out FILE  output path (default BENCH_perf.json).
 *
 * Raw items/sec values are only comparable on the same machine and
 * build type; the derived ratio `ff_speedup_miss_heavy` (fast-forward
 * on vs off on the serial pointer-chase scenario) is
 * machine-independent and carries the acceptance gate, >= 5x via
 * bench_compare.py --min-ff-speedup.
 */

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "harness/service/service.hh"
#include "perf_scenarios.hh"
#include "stats/statfmt.hh"

using namespace soefair;
using namespace soefair::bench;

namespace
{

struct NamedResult
{
    std::string name;
    ScenarioResult r;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

const char *
osName()
{
#if defined(__linux__)
    return "linux";
#elif defined(__APPLE__)
    return "darwin";
#elif defined(_WIN32)
    return "windows";
#else
    return "unknown";
#endif
}

const char *
archName()
{
#if defined(__x86_64__) || defined(_M_X64)
    return "x86_64";
#elif defined(__aarch64__)
    return "aarch64";
#else
    return "unknown";
#endif
}

const char *
buildType()
{
#ifdef NDEBUG
    return "release";
#else
    return "debug";
#endif
}

bool
auditsEnabled()
{
    // Always defined (0 or 1) via sim/invariant.hh, pulled in
    // through perf_scenarios.hh.
    return SOEFAIR_AUDIT_ENABLED != 0;
}

/**
 * Drain one short-job sweep campaign (16 jobs, tiny instruction
 * windows: dispatch overhead dominates simulation work) and return
 * jobs completed per second on the fork-per-job executor with `par`
 * slots. Cold queue + no result cache, so every job is simulated.
 */
double
sweepJobsPerSec(unsigned par)
{
    namespace svc = harness::service;
    svc::CampaignManifest m;
    // 8 distinct benchmarks -> 8 single-thread jobs + 4 SOE cells.
    // F=0.5 (fairness-enforced) cells only: the F=0 miss-only cell
    // simulates orders of magnitude more cycles at the same
    // instruction count and would swamp executor overhead.
    m.pairs = {{"gcc", "eon"},
               {"mcf", "crafty"},
               {"swim", "vortex"},
               {"bzip2", "wupwise"}};
    m.levels = {0.5};
    harness::RunConfig rc;
    rc.warmupInstrs = 200;
    rc.timingWarmInstrs = 50;
    rc.measureInstrs = 200;
    m.rc = rc;

    const std::string root = "/tmp/soefair_perf_sweep_" +
                             std::to_string(::getpid()) + "_fork";
    std::filesystem::remove_all(root);
    svc::ServiceConfig cfg;
    cfg.queueDir = root;
    cfg.workerName = "perf";
    cfg.deadlineSeconds = 120.0;
    cfg.leaseSeconds = 120.0;
    cfg.slots = par;

    double secs = 0.0;
    unsigned completed = 0;
    {
        svc::SweepService service(cfg);
        service.enqueueCampaign(m);
        const auto t0 = std::chrono::steady_clock::now();
        const svc::WorkerStats ws = service.serve();
        secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
        completed = ws.completed;
    }
    std::filesystem::remove_all(root);
    return secs > 0.0 ? double(completed) / secs : 0.0;
}

void
writeReport(std::ostream &os, const std::vector<NamedResult> &results,
            double ff_speedup, double fork_jps, std::uint64_t items)
{
    os << "{\n";
    os << "  \"schema\": 1,\n";
    os << "  \"suite\": \"soefair-perf\",\n";
    os << "  \"machine\": {\n";
    os << "    \"os\": \"" << osName() << "\",\n";
    os << "    \"arch\": \"" << archName() << "\",\n";
    os << "    \"cpus\": " << std::thread::hardware_concurrency()
       << ",\n";
    os << "    \"compiler\": \"" << jsonEscape(__VERSION__) << "\",\n";
    os << "    \"build\": \"" << buildType() << "\",\n";
    os << "    \"audits\": " << (auditsEnabled() ? "true" : "false")
       << "\n";
    os << "  },\n";
    os << "  \"config\": { \"items\": " << items << " },\n";
    os << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const NamedResult &n = results[i];
        os << "    { \"name\": \"" << n.name << "\", "
           << "\"items_per_sec\": " << std::uint64_t(n.r.instrsPerSec)
           << ", \"items\": " << n.r.instrs << ", \"seconds\": "
           << statistics::statfmt::csv(n.r.seconds)
           << ", \"skipped_frac\": "
           << statistics::statfmt::csv(n.r.skippedFrac)
           << " },\n";
    }
    // The sweep-executor scenario counts jobs, not instructions; it
    // still rides the same items_per_sec regression check.
    os << "    { \"name\": \"jobs_per_sec_short_fork\", "
       << "\"items_per_sec\": "
       << statistics::statfmt::csv(fork_jps) << " }\n";
    os << "  ],\n";
    os << "  \"derived\": {\n";
    os << "    \"ff_speedup_miss_heavy\": "
       << statistics::statfmt::csv(ff_speedup) << "\n";
    os << "  }\n";
    os << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t items = 200 * 1000;
    std::string outPath = "BENCH_perf.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--items") && i + 1 < argc) {
            items = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "usage: perf_report [--items N] [--out FILE]"
                      << std::endl;
            return 2;
        }
    }
    if (items < 10000)
        items = 10000; // below this the timed windows are all noise
    const std::uint64_t missItems = items / 10;

    std::vector<NamedResult> results;

    {
        SoeSim sim(lowMissPair(), true);
        results.push_back(
            {"soe_e2e_low_miss", measureScenario(sim, items)});
    }
    {
        SoeSim sim(highMissPair(), true);
        results.push_back(
            {"soe_e2e_high_miss", measureScenario(sim, items)});
    }
    ScenarioResult on, off;
    {
        SoeSim sim(missHeavySingle(), true);
        on = measureScenario(sim, missItems);
        results.push_back({"miss_heavy_ff_on", on});
    }
    {
        SoeSim sim(missHeavySingle(), false);
        off = measureScenario(sim, missItems);
        results.push_back({"miss_heavy_ff_off", off});
    }
    const double speedup = off.instrsPerSec > 0.0
        ? on.instrsPerSec / off.instrsPerSec : 0.0;

    // Sweep-executor throughput: one forked slot per CPU (up to 8).
    unsigned par = std::thread::hardware_concurrency();
    if (par < 1)
        par = 1;
    if (par > 8)
        par = 8;
    const double forkJps = sweepJobsPerSec(par);

    std::ofstream out(outPath);
    if (!out) {
        std::cerr << "perf_report: cannot open " << outPath
                  << std::endl;
        return 1;
    }
    writeReport(out, results, speedup, forkJps, items);

    for (const NamedResult &n : results) {
        std::cout << n.name << ": "
                  << std::uint64_t(n.r.instrsPerSec)
                  << " instrs/sec (skipped "
                  << std::uint64_t(n.r.skippedFrac * 100.0) << "%)"
                  << std::endl;
    }
    std::cout << "jobs_per_sec_short_fork: "
              << statistics::statfmt::csv(forkJps) << std::endl;
    std::cout << "ff_speedup_miss_heavy: "
              << statistics::statfmt::csv(speedup) << "x -> "
              << outPath << std::endl;
    return 0;
}
