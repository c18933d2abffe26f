/**
 * @file
 * Runtime single-thread-performance estimation (Section 3.1,
 * Equations 11-13) and its guardrails.
 *
 * Three hardware counters per thread — instructions retired, cycles
 * actually running (excluding switch overhead) and switch-causing
 * last-level misses — are sampled every delta cycles and turned into
 * estimates of IPM, CPM and, with the known average miss latency,
 * the IPC the thread would have achieved running alone (IPC_ST).
 *
 * Because the equations divide by per-window counts, degenerate
 * windows (a starved thread, a zero-cycle sample, a corrupted
 * counter) would otherwise flow unchecked into the Eq. 9 quota. The
 * EstimatorGuard screens every window before it is trusted: empty
 * and impossible windows are denied, IPM/CPM outliers beyond a
 * fixed z-band are denied, and the last good estimate is
 * carried forward with an exponentially growing relaxation so a
 * thread whose estimates go stale drifts back toward plain SOE
 * instead of being throttled on garbage.
 */

#ifndef SOEFAIR_CORE_ESTIMATOR_HH
#define SOEFAIR_CORE_ESTIMATOR_HH

#include <cstdint>

#include "sim/types.hh"

namespace soefair
{
namespace core
{

/** The three per-thread hardware counters of Section 3.1. */
struct HwCounters
{
    /** Instrs_j: instructions retired while running under SOE. */
    std::uint64_t instrs = 0;
    /**
     * Cycles_j: cycles from the retirement of the first instruction
     * after switch-in until switch-out (excludes switch overhead).
     */
    std::uint64_t cycles = 0;
    /**
     * Misses_j: unresolved last-level misses encountered at the
     * head of the ROB (first of each overlapped group only).
     */
    std::uint64_t misses = 0;

    void
    reset()
    {
        instrs = cycles = misses = 0;
    }
};

/** Derived estimates for one sampling window. */
struct WindowEstimate
{
    double ipm = 0.0;   ///< Eq. 11
    double cpm = 0.0;   ///< Eq. 12
    double ipcSt = 0.0; ///< Eq. 13
    /** True if the window had no retired instructions (no data). */
    bool empty = true;
};

/**
 * Apply Eqs. 11-13 to a window's counters.
 *
 * Per the paper, a window with zero misses uses Misses_j = 1, which
 * under-estimates IPC_ST slightly but safely. A window with zero
 * instructions yields an empty estimate (callers carry the previous
 * window's values forward).
 */
WindowEstimate estimateWindow(const HwCounters &c, double miss_lat);

/*
 * Settings of the estimator guardrails (see EstimatorGuard). They are
 * constants: the paper's mechanism is tuned by F, delta and the
 * max-cycles quota only.
 */

/**
 * Outlier band: a window whose IPM or CPM lies more than this many
 * running standard deviations from the running mean is denied.
 */
constexpr double guardZBand = 6.0;
/** Good windows to observe before the z-screen arms. */
constexpr unsigned guardMinWindowsForZ = 8;
/**
 * Relative stddev floor for the z-screen, as a fraction of the
 * running mean: protects perfectly stable workloads (variance ~ 0)
 * from flagging harmless jitter.
 */
constexpr double guardRelStdFloor = 0.10;
/**
 * Per-bad-window carry-forward decay in (0, 1). Each consecutive
 * denied window divides the quota's confidence by this factor,
 * relaxing the Eq. 9 quota toward its IPM clamp (= plain SOE).
 */
constexpr double guardDecay = 0.8;
/**
 * Consecutive bad windows on any thread after which the fairness
 * enforcer degrades to plain SOE entirely.
 */
constexpr unsigned guardMaxBadWindows = 4;

/** Outcome of screening one window. */
enum class WindowVerdict
{
    Good,       ///< trusted; becomes the new last-good estimate
    Empty,      ///< starved window (no retirements): carried forward
    Degenerate, ///< impossible counters (instrs without cycles, ...)
    Outlier,    ///< beyond the z-band of the running IPM/CPM stats
};

/** A screened window: the estimate to use plus how it was judged. */
struct ScreenedEstimate
{
    WindowEstimate estimate;
    WindowVerdict verdict = WindowVerdict::Empty;
};

/**
 * Per-thread guardrail state: screens raw counter windows, learns
 * running IPM/CPM statistics for the outlier band, and tracks the
 * consecutive-bad-window streak that drives graceful degradation.
 */
class EstimatorGuard
{
  public:
    /**
     * Screen one window. Good windows return their fresh estimate
     * and reset the bad streak; bad windows return the last good
     * estimate (possibly empty) and grow the streak.
     */
    ScreenedEstimate screen(const HwCounters &c, double miss_lat);

    /** Consecutive bad windows since the last good one. */
    unsigned badStreak() const { return streak; }

    /** Last trusted estimate (empty until the first good window). */
    const WindowEstimate &lastGood() const { return good; }

    /**
     * Quota relaxation multiplier: 1 while estimates are fresh,
     * (1/decay)^streak while they are stale, capped so the Eq. 9
     * IPM clamp always bounds the result.
     */
    double relaxation() const;

  private:
    bool isOutlier(const WindowEstimate &e) const;
    void learn(const WindowEstimate &e);
    ScreenedEstimate deny(WindowVerdict verdict);

    WindowEstimate good;
    unsigned streak = 0;
    /** Good windows folded into the running statistics. */
    std::uint64_t learned = 0;
    /** EWMA mean/variance of IPM and CPM (outlier band). */
    double ipmMean = 0.0, ipmVar = 0.0;
    double cpmMean = 0.0, cpmVar = 0.0;
};

} // namespace core
} // namespace soefair

#endif // SOEFAIR_CORE_ESTIMATOR_HH
