/**
 * @file
 * Functional-unit pool: structural hazards on execution resources.
 *
 * Pipelined units accept one op per cycle each; unpipelined units
 * (dividers) are busy for their full latency. Loads and stores
 * compete for cache ports (the AGU + data-cache port pair).
 *
 * Within a unit kind either every unit is pipelined or none is. A
 * pipelined unit is busy only in the cycle it was claimed, so the
 * busy units of a pipelined kind at `now` are exactly those claimed
 * at `now`: one (claim tick, count) pair per kind makes occupy()
 * O(1). Divider kinds keep a busy-until tick per unit.
 * Ticks passed to occupy() never decrease between resets (the core
 * only moves forward in time), which is what makes the pair exact.
 */

#ifndef SOEFAIR_CPU_FU_POOL_HH
#define SOEFAIR_CPU_FU_POOL_HH

#include <array>
#include <vector>

#include "isa/micro_op.hh"
#include "sim/types.hh"

namespace soefair
{
namespace cpu
{

struct FuPoolConfig
{
    unsigned intAlu = 3;
    unsigned intMul = 1;
    unsigned intDiv = 1;
    unsigned fpAdd = 1;
    unsigned fpMul = 1;
    unsigned fpDiv = 1;
    /** AGU + cache port pairs shared by loads and stores. */
    unsigned memPorts = 2;
};

class FuPool
{
  public:
    explicit FuPool(const FuPoolConfig &config);

    /** True if a unit for this op class is free at `now`. */
    bool
    canIssue(isa::OpClass c, Tick now) const
    {
        return firstFree[kindOf(c)] <= now;
    }

    /** Claim a unit; caller must have checked canIssue. */
    void occupy(isa::OpClass c, Tick now);

    /** Release every unit (thread-switch drain). */
    void reset();

    /**
     * Earliest tick strictly after `now` at which a currently busy
     * unit frees up, or maxTick when nothing is in flight. A stalled
     * issue stage can next succeed no earlier than this (or than an
     * operand-ready tick, which the ROB tracks separately).
     */
    Tick nextFreeTick(Tick now) const;

  private:
    /** Internal unit kinds. */
    enum Kind : unsigned
    {
        KIntAlu, KIntMul, KIntDiv, KFpAdd, KFpMul, KFpDiv, KMem,
        KNumKinds
    };

    /** Unit kind serving each op class, in OpClass order. */
    static constexpr Kind kinds[isa::numOpClasses] = {
        KIntAlu, KIntMul, KIntDiv, KFpAdd, KFpMul, KFpDiv,
        KMem,    // Load
        KMem,    // Store
        KIntAlu, // BranchCond
        KIntAlu, // BranchUncond
        KIntAlu, // Nop
        KIntAlu, // Pause
    };

    /** Whether each kind's units are pipelined, in Kind order. */
    static constexpr bool pipelinedKind[KNumKinds] = {
        true, true, false, true, true, false, true,
    };

    static constexpr bool
    kindsAgreeWithOpClasses()
    {
        for (unsigned c = 0; c < isa::numOpClasses; ++c) {
            if (pipelinedKind[kinds[c]] !=
                isa::opPipelined(static_cast<isa::OpClass>(c)))
                return false;
        }
        return true;
    }

    static Kind
    kindOf(isa::OpClass c)
    {
        if (static_cast<unsigned>(c) >= isa::numOpClasses)
            isa::badOpClass("FuPool::kindOf");
        return kinds[static_cast<unsigned>(c)];
    }

    /** Units claimed in one cycle by a pipelined kind. */
    struct Claims
    {
        Tick tick = 0;
        unsigned count = 0;
    };

    std::array<unsigned, KNumKinds> unitCount{};
    /** Pipelined kinds: the latest cycle with claims, and how many. */
    std::array<Claims, KNumKinds> claims{};
    /** Divider kinds: the tick each unit frees up. */
    std::array<std::vector<Tick>, KNumKinds> busyUntil;
    /**
     * A unit of kind k is free at `now` iff firstFree[k] <= now, so
     * canIssue() is one compare. For a divider kind it is the
     * earliest busyUntil; for a pipelined kind, the tick of its
     * latest claim, plus one when that claim took its last unit.
     */
    std::array<Tick, KNumKinds> firstFree{};
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_FU_POOL_HH
