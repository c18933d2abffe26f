/**
 * @file
 * Functional-unit pool: structural hazards on execution resources.
 *
 * Pipelined units accept one op per cycle each; unpipelined units
 * (dividers) are busy for their full latency. Loads and stores
 * compete for cache ports (the AGU + data-cache port pair).
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

    static Kind
    kindOf(isa::OpClass c)
    {
        if (static_cast<unsigned>(c) >= isa::numOpClasses)
            isa::badOpClass("FuPool::kindOf");
        return kinds[static_cast<unsigned>(c)];
    }

    /**
     * Cycles an op of class c holds its unit: one for a pipelined
     * unit, the full latency for an unpipelined one.
     */
    static unsigned
    holdCycles(isa::OpClass c)
    {
        return isa::opPipelined(c) ? 1 : isa::opLatency(c);
    }

    std::array<std::vector<Tick>, KNumKinds> busyUntil;
    /**
     * Earliest busyUntil over each kind's units: a unit of kind k is
     * free at `now` iff firstFree[k] <= now. occupy() keeps it exact,
     * so canIssue() is one compare instead of a scan.
     */
    std::array<Tick, KNumKinds> firstFree{};
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_FU_POOL_HH
