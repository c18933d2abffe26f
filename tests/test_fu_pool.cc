/** @file Unit tests for the functional-unit pool. */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/fu_pool.hh"

#include "sim/logging.hh"
#include "sim/random.hh"

using namespace soefair;
using namespace soefair::cpu;
using namespace soefair::isa;

TEST(FuPool, PipelinedUnitsAcceptPerCycle)
{
    FuPool pool(FuPoolConfig{1, 1, 1, 1, 1, 1, 1});
    EXPECT_TRUE(pool.canIssue(OpClass::FpMul, 10));
    pool.occupy(OpClass::FpMul, 10);
    // Same cycle: the single unit is claimed.
    EXPECT_FALSE(pool.canIssue(OpClass::FpMul, 10));
    // Next cycle it accepts again (pipelined).
    EXPECT_TRUE(pool.canIssue(OpClass::FpMul, 11));
}

TEST(FuPool, UnpipelinedDividerBlocksForLatency)
{
    FuPool pool(FuPoolConfig{1, 1, 1, 1, 1, 1, 1});
    pool.occupy(OpClass::IntDiv, 0);
    const Tick lat = opLatency(OpClass::IntDiv);
    for (Tick t = 0; t < lat; ++t)
        EXPECT_FALSE(pool.canIssue(OpClass::IntDiv, t)) << t;
    EXPECT_TRUE(pool.canIssue(OpClass::IntDiv, lat));
}

TEST(FuPool, MultipleAluUnitsSameCycle)
{
    FuPool pool(FuPoolConfig{3, 1, 1, 1, 1, 1, 2});
    pool.occupy(OpClass::IntAlu, 5);
    pool.occupy(OpClass::IntAlu, 5);
    pool.occupy(OpClass::IntAlu, 5);
    EXPECT_FALSE(pool.canIssue(OpClass::IntAlu, 5));
    EXPECT_TRUE(pool.canIssue(OpClass::IntAlu, 6));
}

TEST(FuPool, BranchesShareAluUnits)
{
    FuPool pool(FuPoolConfig{1, 1, 1, 1, 1, 1, 1});
    pool.occupy(OpClass::BranchCond, 0);
    EXPECT_FALSE(pool.canIssue(OpClass::IntAlu, 0));
}

TEST(FuPool, LoadsAndStoresShareMemPorts)
{
    FuPool pool(FuPoolConfig{3, 1, 1, 1, 1, 1, 2});
    pool.occupy(OpClass::Load, 0);
    pool.occupy(OpClass::Store, 0);
    EXPECT_FALSE(pool.canIssue(OpClass::Load, 0));
    EXPECT_FALSE(pool.canIssue(OpClass::Store, 0));
    EXPECT_TRUE(pool.canIssue(OpClass::Load, 1));
}

TEST(FuPool, IndependentKindsDoNotInterfere)
{
    FuPool pool(FuPoolConfig{1, 1, 1, 1, 1, 1, 1});
    pool.occupy(OpClass::IntAlu, 0);
    EXPECT_TRUE(pool.canIssue(OpClass::FpAdd, 0));
    EXPECT_TRUE(pool.canIssue(OpClass::Load, 0));
}

TEST(FuPool, ResetFreesEverything)
{
    FuPool pool(FuPoolConfig{1, 1, 1, 1, 1, 1, 1});
    pool.occupy(OpClass::IntDiv, 0);
    pool.occupy(OpClass::IntAlu, 0);
    pool.reset();
    EXPECT_TRUE(pool.canIssue(OpClass::IntDiv, 0));
    EXPECT_TRUE(pool.canIssue(OpClass::IntAlu, 0));
}

TEST(FuPool, OccupyWithoutCapacityPanics)
{
    FuPool pool(FuPoolConfig{1, 1, 1, 1, 1, 1, 1});
    pool.occupy(OpClass::IntAlu, 0);
    EXPECT_THROW(pool.occupy(OpClass::IntAlu, 0), PanicError);
}

namespace
{

/** Reference model: a busy-until tick per unit, scanned on every call. */
class ScanPool
{
  public:
    explicit ScanPool(const FuPoolConfig &c)
    {
        const unsigned counts[] = {c.intAlu, c.intMul, c.intDiv,
                                   c.fpAdd,  c.fpMul,  c.fpDiv,
                                   c.memPorts};
        for (unsigned k = 0; k < 7; ++k)
            busyUntil[k].assign(counts[k], 0);
    }

    bool
    canIssue(OpClass c, Tick now) const
    {
        for (Tick t : busyUntil[kindOf(c)]) {
            if (t <= now)
                return true;
        }
        return false;
    }

    void
    occupy(OpClass c, Tick now)
    {
        for (Tick &t : busyUntil[kindOf(c)]) {
            if (t <= now) {
                t = now + (opPipelined(c) ? 1 : opLatency(c));
                return;
            }
        }
        FAIL() << "reference occupy with no free unit";
    }

    Tick
    nextFreeTick(Tick now) const
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
    reset()
    {
        for (auto &units : busyUntil)
            units.assign(units.size(), 0);
    }

  private:
    static unsigned
    kindOf(OpClass c)
    {
        switch (c) {
          case OpClass::IntMul: return 1;
          case OpClass::IntDiv: return 2;
          case OpClass::FpAdd: return 3;
          case OpClass::FpMul: return 4;
          case OpClass::FpDiv: return 5;
          case OpClass::Load:
          case OpClass::Store: return 6;
          default: return 0;
        }
    }

    std::vector<Tick> busyUntil[7];
};

} // namespace

TEST(FuPool, MatchesScanningReferenceModel)
{
    const FuPoolConfig configs[] = {
        {1, 1, 1, 1, 1, 1, 1},
        {3, 1, 1, 1, 1, 1, 2},
        {3, 2, 2, 2, 1, 2, 2},
    };
    Rng rng(0xF00D);
    for (const FuPoolConfig &cfg : configs) {
        FuPool pool(cfg);
        ScanPool ref(cfg);
        Tick now = 0;
        int panicsChecked = 0;
        for (int step = 0; step < 50000; ++step) {
            const auto c = static_cast<OpClass>(rng.below(numOpClasses));
            switch (rng.below(16)) {
              case 0:
              case 1:
                ++now;
                break;
              case 2:
                now += rng.inRange(2, 25);
                break;
              case 3:
                // A fast-forward jump over a long stall.
                if (rng.below(8) == 0)
                    now += rng.inRange(100, 100000);
                break;
              case 4:
                if (rng.below(32) == 0) {
                    pool.reset();
                    ref.reset();
                }
                break;
              case 5:
                ASSERT_EQ(pool.nextFreeTick(now), ref.nextFreeTick(now))
                    << "step " << step << " tick " << now;
                break;
              default: {
                const bool free = ref.canIssue(c, now);
                ASSERT_EQ(pool.canIssue(c, now), free)
                    << "step " << step << " tick " << now << " class "
                    << opClassName(c);
                if (free) {
                    pool.occupy(c, now);
                    ref.occupy(c, now);
                } else if (panicsChecked < 10) {
                    // A refused claim must leave the pool as it was.
                    ++panicsChecked;
                    EXPECT_THROW(pool.occupy(c, now), PanicError);
                }
                break;
              }
            }
        }
    }
}
