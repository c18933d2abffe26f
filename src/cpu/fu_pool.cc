#include "cpu/fu_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

FuPool::FuPool(const FuPoolConfig &config)
{
    static_assert(kindsAgreeWithOpClasses(),
                  "a unit kind mixes pipelined and unpipelined ops");
    unitCount = {config.intAlu, config.intMul, config.intDiv,
                 config.fpAdd,  config.fpMul,  config.fpDiv,
                 config.memPorts};
    for (unsigned k = 0; k < KNumKinds; ++k) {
        soefair_assert(unitCount[k] > 0, "FU kind with zero units");
        if (!pipelinedKind[k])
            busyUntil[k].assign(unitCount[k], 0);
    }
}

void
FuPool::occupy(isa::OpClass c, Tick now)
{
    const Kind k = kindOf(c);
    if (firstFree[k] > now)
        panic("FuPool::occupy with no free unit");
    if (pipelinedKind[k]) {
        // Whether this cycle already claimed a unit of the kind is
        // close to a coin flip, so this path has no branch: the
        // count restarts at 1 in a new cycle, and firstFree becomes
        // now (no change for any later query) or now + 1 (full).
        Claims &cl = claims[k];
        const unsigned sameCycle = cl.tick == now;
        cl.count = (cl.count & -sameCycle) + 1;
        cl.tick = now;
        firstFree[k] = now + (cl.count == unitCount[k]);
        return;
    }
    Tick first = maxTick;
    bool claimed = false;
    for (Tick &t : busyUntil[k]) {
        if (!claimed && t <= now) {
            t = now + isa::opLatency(c);
            claimed = true;
        }
        first = std::min(first, t);
    }
    firstFree[k] = first;
}

Tick
FuPool::nextFreeTick(Tick now) const
{
    Tick wake = maxTick;
    for (unsigned k = 0; k < KNumKinds; ++k) {
        if (pipelinedKind[k]) {
            // Units claimed at tick t are busy until t + 1.
            const Claims &cl = claims[k];
            if (cl.count > 0 && cl.tick >= now)
                wake = std::min(wake, cl.tick + 1);
            continue;
        }
        for (Tick t : busyUntil[k]) {
            if (t > now && t < wake)
                wake = t;
        }
    }
    return wake;
}

void
FuPool::reset()
{
    claims.fill(Claims{});
    for (auto &units : busyUntil)
        std::fill(units.begin(), units.end(), Tick(0));
    firstFree.fill(0);
}

} // namespace cpu
} // namespace soefair
