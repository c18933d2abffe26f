/** @file Unit tests for the decoupled front end (FetchUnit). */

#include <gtest/gtest.h>

#include <cstring>

#include "cpu/fetch.hh"
#include "workload/generator.hh"
#include "mem/hierarchy.hh"
#include "sim/event_queue.hh"
#include "workload/inst_stream.hh"
#include "workload/profile.hh"

using namespace soefair;
using namespace soefair::cpu;

namespace
{

struct Fixture
{
    Fixture()
        : root("t"),
          hier(mem::HierarchyConfig{}, events, &root),
          bp({1024, 8, 256, 4}, &root),
          gen(workload::spec::byName("eon"), 0, 5),
          stream(gen),
          fetch(FetchConfig{4, 16, 4, 2}, hier, bp, &root)
    {
        fetch.addThread(&stream);
    }

    /** Warm the code path so fetch is not I-miss bound. */
    void
    warmCode(unsigned instrs)
    {
        workload::WorkloadGenerator warm(
            workload::spec::byName("eon"), 0, 5);
        for (unsigned i = 0; i < instrs; ++i) {
            auto op = warm.next();
            hier.warmFetch(0, op.pc);
            if (op.isBranch()) {
                auto p = bp.predict(op);
                bp.update(op, p);
            }
        }
    }

    statistics::Group root;
    EventQueue events;
    mem::Hierarchy hier;
    BranchPredictor bp;
    workload::WorkloadGenerator gen;
    workload::InstStream stream;
    FetchUnit fetch;
};

void
expectSameOp(const isa::MicroOp &got, const isa::MicroOp &want)
{
    EXPECT_EQ(got.seqNum, want.seqNum);
    EXPECT_EQ(got.pc, want.pc);
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.src0, want.src0);
    EXPECT_EQ(got.src1, want.src1);
    EXPECT_EQ(got.dest, want.dest);
    EXPECT_EQ(got.memAddr, want.memAddr);
    EXPECT_EQ(got.memSize, want.memSize);
    EXPECT_EQ(got.taken, want.taken);
    EXPECT_EQ(got.target, want.target);
}

/** The back-end fields, which fetch leaves at their DynInst{} value. */
void
expectBackEndFieldsReset(const DynInst &d)
{
    const DynInst fresh{};
    EXPECT_EQ(d.readyTick, fresh.readyTick);
    EXPECT_EQ(d.completionTick, fresh.completionTick);
    EXPECT_EQ(d.src[0], nullptr);
    EXPECT_EQ(d.src[1], nullptr);
    EXPECT_FALSE(d.waiters);
    EXPECT_FALSE(d.nextWaiter[0]);
    EXPECT_FALSE(d.nextWaiter[1]);
    EXPECT_EQ(d.pending, fresh.pending);
    EXPECT_EQ(d.inRob, fresh.inRob);
    EXPECT_EQ(d.inIq, fresh.inIq);
    EXPECT_EQ(d.issued, fresh.issued);
    EXPECT_EQ(d.l2Miss, fresh.l2Miss);
    EXPECT_EQ(d.l1Miss, fresh.l1Miss);
}

void
fillWithGarbage(DynInst &d)
{
    std::memset(static_cast<void *>(&d), 0xA5, sizeof d);
}

} // namespace

TEST(Fetch, RingEntryOverGarbageEqualsFreshOneButForItsOp)
{
    InstRing ring(2);
    fillWithGarbage(ring.slot(0));
    workload::WorkloadGenerator gen(workload::spec::byName("gcc"), 0, 3);
    const isa::MicroOp op = gen.next();

    const DynInst &d = ring.emplaceBack(op);
    ASSERT_EQ(&d, &ring.slot(0));
    const DynInst fresh{};
    expectSameOp(d.op, op);
    EXPECT_EQ(d.dispatchReadyTick, fresh.dispatchReadyTick);
    EXPECT_EQ(d.tid, fresh.tid);
    EXPECT_EQ(d.pred.taken, fresh.pred.taken);
    EXPECT_EQ(d.pred.targetKnown, fresh.pred.targetKnown);
    EXPECT_EQ(d.pred.target, fresh.pred.target);
    EXPECT_EQ(d.mispredicted, fresh.mispredicted);
    expectBackEndFieldsReset(d);
}

TEST(Fetch, FetchIntoGarbageSlotsResetsEveryField)
{
    // Every entry leaving the buffer has its slot overwritten with
    // garbage, so once the ring wraps each op is fetched into one.
    Fixture f;
    f.warmCode(50000);
    workload::WorkloadGenerator ref(workload::spec::byName("eon"), 0, 5);
    f.fetch.activate(0, 0);
    std::size_t checked = 0;
    for (Tick t = 0; t < 20000 && checked < 200; ++t) {
        f.events.runUntil(t);
        f.fetch.tick(t);
        while (DynInst *d = f.fetch.dispatchable(t)) {
            expectSameOp(d->op, ref.next());
            EXPECT_EQ(d->tid, 0);
            EXPECT_LE(d->dispatchReadyTick, t);
            if (!d->op.isBranch()) {
                EXPECT_FALSE(d->pred.taken);
                EXPECT_FALSE(d->pred.targetKnown);
                EXPECT_EQ(d->pred.target, 0u);
                EXPECT_FALSE(d->mispredicted);
            }
            expectBackEndFieldsReset(*d);
            if (d->mispredicted)
                f.fetch.branchResolved(d->op.seqNum, t);
            fillWithGarbage(*d);
            f.fetch.popDispatchable();
            ++checked;
        }
    }
    EXPECT_GE(checked, 200u);
}

TEST(Fetch, InactiveUnitDoesNothing)
{
    Fixture f;
    f.fetch.tick(1);
    EXPECT_EQ(f.fetch.buffered(), 0u);
}

TEST(Fetch, FetchesAfterActivation)
{
    Fixture f;
    f.warmCode(50000);
    f.fetch.activate(0, 10);
    // Before the resume tick: nothing.
    f.fetch.tick(5);
    EXPECT_EQ(f.fetch.buffered(), 0u);
    // After: ops arrive (may take a couple of ticks for I-TLB/L1I).
    for (Tick t = 10; t < 600 && f.fetch.buffered() == 0; ++t) {
        f.events.runUntil(t);
        f.fetch.tick(t);
    }
    EXPECT_GT(f.fetch.buffered(), 0u);
}

TEST(Fetch, DispatchRespectsFrontDepth)
{
    Fixture f;
    f.warmCode(50000);
    f.fetch.activate(0, 0);
    Tick t = 0;
    while (f.fetch.buffered() == 0 && t < 600) {
        f.events.runUntil(t);
        f.fetch.tick(t);
        ++t;
    }
    ASSERT_GT(f.fetch.buffered(), 0u);
    // The op fetched at tick T is dispatchable only at T+frontDepth.
    DynInst *d = f.fetch.dispatchable(t - 1);
    if (d == nullptr) {
        d = f.fetch.dispatchable(t - 1 + 4);
        EXPECT_NE(d, nullptr);
    }
}

TEST(Fetch, TakeDispatchableConsumesInOrder)
{
    Fixture f;
    f.warmCode(50000);
    f.fetch.activate(0, 0);
    // The first fetch pays a cold iTLB walk (~320 cycles).
    Tick warmT = 0;
    while (f.fetch.buffered() < 4 && warmT < 2000) {
        f.events.runUntil(warmT);
        f.fetch.tick(warmT);
        ++warmT;
    }
    ASSERT_GE(f.fetch.buffered(), 4u);
    InstSeqNum prev = 0;
    int taken = 0;
    for (Tick t = warmT; t < warmT + 2000 && taken < 8; ++t) {
        f.events.runUntil(t);
        f.fetch.tick(t);
        while (DynInst *d = f.fetch.dispatchable(t)) {
            EXPECT_GT(d->op.seqNum, prev);
            prev = d->op.seqNum;
            f.fetch.popDispatchable();
            if (++taken >= 8)
                break;
        }
    }
    EXPECT_GE(taken, 8);
}

TEST(Fetch, StallsOnUnfollowableBranchUntilResolved)
{
    Fixture f;
    // Cold predictor: the first taken branch has no BTB target, so
    // fetch must stall on it.
    f.fetch.activate(0, 0);
    Tick t = 0;
    while (!f.fetch.stalledOnBranch() && t < 5000) {
        f.events.runUntil(t);
        f.fetch.tick(t);
        ++t;
    }
    ASSERT_TRUE(f.fetch.stalledOnBranch());
    const std::size_t before = f.fetch.buffered();
    // While stalled, no further fetch.
    for (Tick u = t; u < t + 20; ++u) {
        f.events.runUntil(u);
        f.fetch.tick(u);
    }
    EXPECT_EQ(f.fetch.buffered(), before);

    // Find the stalling branch in the buffer and resolve it.
    InstSeqNum branchSeq = 0;
    for (Tick u = t + 20; u < t + 40; ++u) {
        // Drain dispatchables to find the mispredicted branch.
        while (DynInst *d = f.fetch.dispatchable(u)) {
            if (d->mispredicted)
                branchSeq = d->op.seqNum;
            f.fetch.popDispatchable();
        }
        if (branchSeq)
            break;
    }
    ASSERT_NE(branchSeq, 0u);
    f.fetch.branchResolved(branchSeq, t + 50);
    EXPECT_FALSE(f.fetch.stalledOnBranch());
    // Fetch resumes after the redirect delay.
    bool fetchedMore = false;
    for (Tick u = t + 50; u < t + 600; ++u) {
        f.events.runUntil(u);
        f.fetch.tick(u);
        if (f.fetch.buffered() > 0) {
            fetchedMore = true;
            break;
        }
    }
    EXPECT_TRUE(fetchedMore);
}

TEST(Fetch, SquashAllEmptiesBuffer)
{
    Fixture f;
    f.warmCode(50000);
    f.fetch.activate(0, 0);
    // The first fetch pays a cold iTLB walk (~320 cycles).
    for (Tick t = 0; t < 2000 && f.fetch.buffered() == 0; ++t) {
        f.events.runUntil(t);
        f.fetch.tick(t);
    }
    EXPECT_GT(f.fetch.buffered(), 0u);
    f.fetch.squashAll();
    EXPECT_EQ(f.fetch.buffered(), 0u);
    EXPECT_FALSE(f.fetch.stalledOnBranch());
}

TEST(Fetch, ActivateUnknownThreadPanics)
{
    Fixture f;
    EXPECT_THROW(f.fetch.activate(3, 0), PanicError);
}
