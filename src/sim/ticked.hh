/**
 * @file
 * The fast-forward contract of a ticked component, as a concept.
 *
 * System::step jumps over quiescent cycles up to the earliest wake
 * tick any component publishes (docs/performance.md). A component
 * that is ticked but publishes no wake horizon would be silently
 * skipped over during such a jump, so every tick call site goes
 * through tickComponent(), which only compiles for a component that
 * declares nextWakeTick(Tick) next to its tick(Tick).
 */

#ifndef SOEFAIR_SIM_TICKED_HH
#define SOEFAIR_SIM_TICKED_HH

#include <concepts>

#include "sim/types.hh"

namespace soefair
{

/**
 * A per-cycle component: tick(now) reports whether it made progress,
 * and after a tick that made none, nextWakeTick(now) is the earliest
 * tick at which it can change state again.
 */
template <typename C>
concept WakeTicked = requires(C &c, const C &cc, Tick now) {
    { c.tick(now) } -> std::same_as<bool>;
    { cc.nextWakeTick(now) } -> std::same_as<Tick>;
};

/** Tick `c` at `now`; see the file comment. */
template <WakeTicked C>
inline bool
tickComponent(C &c, Tick now)
{
    return c.tick(now);
}

} // namespace soefair

#endif // SOEFAIR_SIM_TICKED_HH
