/**
 * @file
 * Experiment runner: single-thread reference runs and SOE runs with
 * the paper's warmup methodology (functional cache warm, timing
 * warm excluded from statistics, then a measured region).
 */

#ifndef SOEFAIR_HARNESS_RUNNER_HH
#define SOEFAIR_HARNESS_RUNNER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "soe/engine.hh"
#include "soe/policies.hh"

namespace soefair
{
namespace harness
{

/** Run-length parameters (scaled-down defaults; see DESIGN.md). */
struct RunConfig
{
    /** Functional cache+predictor warmup instructions per thread. */
    std::uint64_t warmupInstrs = 200 * 1000;
    /** Timing warmup (simulated, excluded from stats) per thread. */
    std::uint64_t timingWarmInstrs = 50 * 1000;
    /** Measured instructions per thread. */
    std::uint64_t measureInstrs = 400 * 1000;
    /** Safety cap on simulated cycles per run. */
    std::uint64_t maxCycles = 400ull * 1000 * 1000;
    /** If set, dump the full statistics tree here after the run. */
    std::ostream *statsDump = nullptr;
    /** If non-empty, write a text retirement trace to this path. */
    std::string retireTracePath;
    /**
     * Jump over provably quiescent stall runs instead of ticking
     * them (System::setFastForward). Results are byte-identical
     * either way; off is useful only for cross-checking that
     * contract and for timing the cycle-stepped baseline.
     */
    bool fastForward = true;

    /**
     * Multiply all instruction counts by `factor` (the environment
     * variable SOEFAIR_SCALE applies this to the benches).
     */
    RunConfig scaled(double factor) const;

    /**
     * Apply SOEFAIR_SCALE (checked by parseRunScale) and
     * SOEFAIR_FASTFORWARD ("0"/"off" disables) from the
     * environment, if set.
     */
    static RunConfig fromEnv(const RunConfig &base);
    static RunConfig fromEnv() { return fromEnv(RunConfig{}); }
};

/**
 * The run scale `text` given by `source` (SOEFAIR_SCALE or --scale).
 * Both sources share this one rule: anything but a finite number in
 * [0.01, 100] raises InputError naming the source.
 */
double parseRunScale(const std::string &text, const char *source);

/** Per-thread outcome of a measured region. */
struct ThreadRunStats
{
    std::uint64_t instrs = 0;
    std::uint64_t misses = 0;
    /** Cycles the thread actually ran (engine's Cycles_j). */
    Tick runCycles = 0;
    /** IPC over the measured region's elapsed cycles. */
    double ipc = 0.0;
};

/** Outcome of a single-thread reference run. */
struct StRunResult
{
    double ipc = 0.0;
    Tick cycles = 0;
    std::uint64_t instrs = 0;
    std::uint64_t misses = 0;
    /** Real IPM/CPM over the measured region. */
    double ipm = 0.0;
    double cpm = 0.0;
    /**
     * Cumulative cycle count at every `windowInstrs` retired
     * instructions (Figure 5's "real IPC_ST" timeline source).
     */
    std::vector<Tick> cyclesAtInstr;
    std::uint64_t windowInstrs = 0;
};

/** Outcome of an SOE run. */
struct SoeRunResult
{
    Tick cycles = 0;
    std::vector<ThreadRunStats> threads;
    double ipcTotal = 0.0;
    std::uint64_t switchesMiss = 0;
    std::uint64_t switchesForced = 0;
    std::uint64_t switchesQuota = 0;
    /** Recorded delta windows (empty unless requested). */
    std::vector<soe::SampleWindowRecord> windows;
    /** True if the run hit the cycle cap before the targets. */
    bool timedOut = false;
};

/**
 * Serialize/parse the result fields the sweep journal records
 * (space-separated, 17 significant digits so doubles round-trip
 * bit-exactly; a resumed campaign must aggregate byte-identically
 * to an uninterrupted one). Decoders return false on malformed
 * payloads so callers can raise a typed CheckpointError.
 */
std::string encodeStPayload(const StRunResult &r);
bool decodeStPayload(const std::string &payload, StRunResult &r);
std::string encodeSoePayload(const SoeRunResult &r);
bool decodeSoePayload(const std::string &payload, SoeRunResult &r);

class Runner
{
  public:
    explicit Runner(const MachineConfig &machine) : mc(machine)
    {
        mc.validate();
    }

    /**
     * Run one thread alone on the machine.
     * @param window_instrs If nonzero, record the cumulative cycle
     *        count at each multiple of this many instructions.
     */
    StRunResult runSingleThread(const ThreadSpec &spec,
                                const RunConfig &rc,
                                std::uint64_t window_instrs = 0);

    /**
     * Run the given threads under SOE with the given policy.
     * @param record_windows Keep every delta-window sample record.
     */
    SoeRunResult runSoe(const std::vector<ThreadSpec> &specs,
                        soe::SchedulingPolicy &policy,
                        const RunConfig &rc,
                        bool record_windows = false);

    const MachineConfig &machine() const { return mc; }

  private:
    MachineConfig mc;
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_RUNNER_HH
