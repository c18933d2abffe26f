/**
 * @file
 * Runtime single-thread-performance estimation (Section 3.1,
 * Equations 11-13).
 *
 * Three hardware counters per thread — instructions retired, cycles
 * actually running (excluding switch overhead) and switch-causing
 * last-level misses — are sampled every delta cycles and turned into
 * estimates of IPM, CPM and, with the known average miss latency,
 * the IPC the thread would have achieved running alone (IPC_ST).
 * A window in which the thread retired nothing yields no estimate;
 * the enforcer carries the previous one forward.
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

} // namespace core
} // namespace soefair

#endif // SOEFAIR_CORE_ESTIMATOR_HH
