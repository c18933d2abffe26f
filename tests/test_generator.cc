/** @file Unit tests for the dynamic workload generator. */

#include <gtest/gtest.h>

#include <map>

#include "sim/logging.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace soefair;
using namespace soefair::isa;
using namespace soefair::workload;

TEST(Generator, SeqNumsAreContiguousFromOne)
{
    WorkloadGenerator g(spec::byName("gcc"), 0, 1);
    for (InstSeqNum i = 1; i <= 1000; ++i)
        EXPECT_EQ(g.next().seqNum, i);
}

TEST(Generator, DeterministicForSameSeed)
{
    WorkloadGenerator a(spec::byName("bzip2"), 0, 9);
    WorkloadGenerator b(spec::byName("bzip2"), 0, 9);
    for (int i = 0; i < 5000; ++i) {
        MicroOp x = a.next(), y = b.next();
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.memAddr, y.memAddr);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.src0, y.src0);
        EXPECT_EQ(x.src1, y.src1);
        EXPECT_EQ(x.dest, y.dest);
    }
}

TEST(Generator, PcsFollowControlFlow)
{
    WorkloadGenerator g(spec::byName("eon"), 0, 3);
    MicroOp prev = g.next();
    for (int i = 0; i < 20000; ++i) {
        MicroOp cur = g.next();
        EXPECT_EQ(cur.pc, prev.actualNextPc())
            << "discontinuity at seq " << cur.seqNum;
        prev = cur;
    }
}

TEST(Generator, BranchesTerminateBlocks)
{
    WorkloadGenerator g(spec::byName("gcc"), 0, 4);
    const Program &p = g.program();
    for (int i = 0; i < 5000; ++i) {
        MicroOp op = g.next();
        if (op.isBranch()) {
            // Branch targets must be block starts.
            bool found = false;
            for (std::uint32_t b = 0; b < p.numBlocks(); ++b) {
                if (p.block(b).startPc == op.target) {
                    found = true;
                    break;
                }
            }
            EXPECT_TRUE(found) << "branch to non-block-start";
        }
    }
}

TEST(Generator, MixRoughlyMatchesProfile)
{
    Profile prof = spec::byName("swim");
    WorkloadGenerator g(prof, 0, 5);
    std::map<OpClass, int> counts;
    const int n = 50000;
    int branches = 0;
    for (int i = 0; i < n; ++i) {
        MicroOp op = g.next();
        ++counts[op.op];
        branches += op.isBranch();
    }
    // Branch fraction ~ 1/avg block length.
    const double avgLen =
        0.5 * (prof.code.blockLenMin + prof.code.blockLenMax);
    EXPECT_NEAR(branches / double(n), 1.0 / avgLen, 0.04);
    // FP-heavy profile generates FP ops and loads.
    EXPECT_GT(counts[OpClass::FpAdd], n / 20);
    EXPECT_GT(counts[OpClass::Load], n / 10);
}

TEST(Generator, SourceRegsPointToRecentProducers)
{
    WorkloadGenerator g(spec::byName("gcc"), 0, 6);
    for (int i = 0; i < 10000; ++i) {
        MicroOp op = g.next();
        if (op.src0 != invalidReg) {
            EXPECT_GE(op.src0, 0);
            EXPECT_LT(op.src0, numArchRegs);
        }
        if (op.dest != invalidReg) {
            EXPECT_GE(op.dest, 0);
            EXPECT_LT(op.dest, numArchRegs);
        }
    }
}

TEST(Generator, ChaseLoadsFormRegisterChain)
{
    // mcf's chase loads must depend on the previous chase load.
    WorkloadGenerator g(spec::byName("mcf"), 0, 7);
    int chaseLoads = 0;
    int chained = 0;
    bool seenFirst = false;
    for (int i = 0; i < 200000; ++i) {
        MicroOp op = g.next();
        if (op.isLoad() && op.dest == 63) { // chaseReg
            ++chaseLoads;
            if (seenFirst) {
                EXPECT_EQ(op.src0, 63);
                ++chained;
            }
            seenFirst = true;
        }
    }
    EXPECT_GT(chaseLoads, 50);
    EXPECT_EQ(chained, chaseLoads - 1);
}

TEST(Generator, PhasesAdvanceAndLoop)
{
    Profile prof = spec::byName("mgrid");
    ASSERT_GE(prof.numPhases(), 2u);
    WorkloadGenerator g(prof, 0, 8);
    const std::uint64_t total =
        prof.phase(0).duration + prof.phase(1).duration;

    // Walk to just past the first phase boundary.
    for (std::uint64_t i = 0; i < prof.phase(0).duration + 10; ++i)
        g.next();
    EXPECT_EQ(g.phaseIndex(), 1u);

    // And past the end of the cycle: back to phase 0.
    for (std::uint64_t i = prof.phase(0).duration + 10; i < total + 10;
         ++i) {
        g.next();
    }
    EXPECT_EQ(g.phaseIndex(), 0u);
}

TEST(Generator, ThreadsUseDisjointAddressSpaces)
{
    WorkloadGenerator a(spec::byName("gcc"), 0, 9);
    WorkloadGenerator b(spec::byName("gcc"), 1, 9);
    // Same seed, different tid: identical structure, disjoint slices.
    for (int i = 0; i < 2000; ++i) {
        MicroOp x = a.next(), y = b.next();
        EXPECT_EQ(x.op, y.op);
        if (x.isMem()) {
            EXPECT_NE(x.memAddr >> 40, y.memAddr >> 40);
        }
        EXPECT_NE(x.pc >> 40, y.pc >> 40);
    }
}

TEST(Generator, PhaseWithBadDependencyProbabilityPanics)
{
    // The geometric draw's p ∈ (0, 1] check runs when a phase is
    // entered, before any op of that phase is generated.
    for (double p : {0.0, -0.5, 1.5}) {
        Profile prof = spec::byName("gcc");
        for (Phase &ph : prof.phases)
            ph.depGeoP = p;
        EXPECT_THROW(WorkloadGenerator(prof, 0, 1), PanicError)
            << "depGeoP " << p;
    }
}

TEST(Generator, DependencyDrawsMatchTheProfileProbabilities)
{
    // Integer thresholds replace real() < p in the hot draws; the
    // no-dependency fraction of ALU sources still tracks depNone.
    const Profile prof = spec::byName("eon");
    WorkloadGenerator g(prof, 0, 5);
    int srcs = 0, none = 0;
    for (int i = 0; i < 200 * 1000; ++i) {
        const MicroOp op = g.next();
        if (op.op != OpClass::IntAlu || op.seqNum < 100)
            continue;
        for (RegId r : {op.src0, op.src1}) {
            ++srcs;
            none += r == invalidReg;
        }
    }
    EXPECT_NEAR(double(none) / srcs, prof.phase(0).depNone, 0.01);
}
