#include "cpu/fu_pool.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

FuPool::FuPool(const FuPoolConfig &config)
{
    busyUntil[KIntAlu].assign(config.intAlu, 0);
    busyUntil[KIntMul].assign(config.intMul, 0);
    busyUntil[KIntDiv].assign(config.intDiv, 0);
    busyUntil[KFpAdd].assign(config.fpAdd, 0);
    busyUntil[KFpMul].assign(config.fpMul, 0);
    busyUntil[KFpDiv].assign(config.fpDiv, 0);
    busyUntil[KMem].assign(config.memPorts, 0);
    for (const auto &units : busyUntil)
        soefair_assert(!units.empty(), "FU kind with zero units");
}

void
FuPool::occupy(isa::OpClass c, Tick now)
{
    const Kind k = kindOf(c);
    if (firstFree[k] > now)
        panic("FuPool::occupy with no free unit");
    Tick first = maxTick;
    bool claimed = false;
    for (Tick &t : busyUntil[k]) {
        if (!claimed && t <= now) {
            t = now + holdCycles(c);
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
    for (const auto &units : busyUntil) {
        for (Tick t : units) {
            if (t > now && t < wake)
                wake = t;
        }
    }
    return wake;
}

void
FuPool::reset()
{
    for (auto &units : busyUntil) {
        for (Tick &t : units)
            t = 0;
    }
    firstFree.fill(0);
}

} // namespace cpu
} // namespace soefair
