/**
 * @file Unit tests for the ROB, rename table, issue queue and the
 * wakeup links between in-flight ops.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/issue_queue.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"

using namespace soefair;
using namespace soefair::cpu;
using namespace soefair::isa;

namespace
{

DynInst
makeInst(InstSeqNum seq, RegId dest = invalidReg)
{
    DynInst i;
    i.op.seqNum = seq;
    i.op.dest = dest;
    return i;
}

} // namespace

TEST(Rob, PushPopInOrder)
{
    Rob rob(4);
    rob.push(makeInst(1));
    rob.push(makeInst(2));
    EXPECT_EQ(rob.head().op.seqNum, 1u);
    rob.popHead();
    EXPECT_EQ(rob.head().op.seqNum, 2u);
    EXPECT_EQ(rob.size(), 1u);
}

TEST(Rob, FullnessAndCapacity)
{
    Rob rob(2);
    rob.push(makeInst(1));
    EXPECT_FALSE(rob.full());
    rob.push(makeInst(2));
    EXPECT_TRUE(rob.full());
    EXPECT_THROW(rob.push(makeInst(3)), PanicError);
}

TEST(Rob, RejectsOutOfOrderSeq)
{
    Rob rob(4);
    rob.push(makeInst(5));
    EXPECT_THROW(rob.push(makeInst(7)), PanicError);
}

TEST(Rob, SquashAllEmpties)
{
    Rob rob(4);
    DynInst &a = rob.push(makeInst(1));
    rob.push(makeInst(2));
    EXPECT_TRUE(a.inRob);
    rob.squashAll();
    EXPECT_TRUE(rob.empty());
}

TEST(Rob, PopOfEmptyPanics)
{
    Rob rob(2);
    EXPECT_THROW(rob.popHead(), PanicError);
    EXPECT_THROW(rob.head(), PanicError);
}

TEST(Rename, TracksYoungestProducer)
{
    Rob rob(8);
    RenameTable rat;
    DynInst &a = rob.push(makeInst(1, 5));
    rat.setProducer(&a);
    EXPECT_EQ(rat.producer(5), &a);
    DynInst &b = rob.push(makeInst(2, 5));
    rat.setProducer(&b);
    EXPECT_EQ(rat.producer(5), &b);
}

TEST(Rename, InvalidRegHasNoProducer)
{
    RenameTable rat;
    EXPECT_EQ(rat.producer(invalidReg), nullptr);
}

TEST(Rename, RetireClearsOnlyIfStillMapped)
{
    Rob rob(8);
    RenameTable rat;
    DynInst &a = rob.push(makeInst(1, 3));
    rat.setProducer(&a);
    DynInst &b = rob.push(makeInst(2, 3));
    rat.setProducer(&b);
    // Retiring the older producer must not clear the younger mapping.
    rat.retire(&a);
    EXPECT_EQ(rat.producer(3), &b);
    rat.retire(&b);
    EXPECT_EQ(rat.producer(3), nullptr);
}

TEST(Rename, ClearResetsAll)
{
    Rob rob(8);
    RenameTable rat;
    DynInst &a = rob.push(makeInst(1, 0));
    rat.setProducer(&a);
    rat.clear();
    EXPECT_EQ(rat.producer(0), nullptr);
}

namespace
{

/** The queue's current selection at `now`, as seq numbers. */
std::vector<InstSeqNum>
selectSeqs(IssueQueue &iq, Tick now)
{
    std::vector<InstSeqNum> out;
    iq.select(now, [&](const DynInst *e) {
        out.push_back(e->op.seqNum);
        return true;
    });
    return out;
}

/** Issue `inst` at `now` with result latency `lat`. */
void
issueAt(IssueQueue &iq, DynInst &inst, Tick now, Tick lat)
{
    inst.completionTick = now + lat;
    inst.issued = true;
    iq.issue(&inst, now);
}

using Seqs = std::vector<InstSeqNum>;

} // namespace

TEST(IssueQueue, InsertAndIssue)
{
    Rob rob(8);
    IssueQueue iq(4, rob);
    DynInst &a = rob.push(makeInst(1));
    DynInst &b = rob.push(makeInst(2));
    iq.insert(&a, nullptr, nullptr, 0);
    iq.insert(&b, nullptr, nullptr, 0);
    EXPECT_EQ(iq.size(), 2u);
    EXPECT_EQ(selectSeqs(iq, 1), (Seqs{1, 2}));
    issueAt(iq, a, 1, 1);
    EXPECT_FALSE(a.inIq);
    EXPECT_EQ(iq.size(), 1u);
    EXPECT_EQ(selectSeqs(iq, 2), (Seqs{2}));
}

TEST(IssueQueue, FullRejectsInsert)
{
    Rob rob(8);
    IssueQueue iq(1, rob);
    DynInst &a = rob.push(makeInst(1));
    iq.insert(&a, nullptr, nullptr, 0);
    DynInst &b = rob.push(makeInst(2));
    EXPECT_THROW(iq.insert(&b, nullptr, nullptr, 0), PanicError);
}

TEST(IssueQueue, SquashAllClearsFlags)
{
    Rob rob(8);
    IssueQueue iq(4, rob);
    DynInst &a = rob.push(makeInst(1, 2));
    DynInst &b = rob.push(makeInst(2));
    iq.insert(&a, nullptr, nullptr, 0);
    iq.insert(&b, &a, nullptr, 0);
    iq.squashAll();
    EXPECT_FALSE(a.inIq);
    EXPECT_FALSE(b.inIq);
    EXPECT_TRUE(iq.empty());
    EXPECT_TRUE(selectSeqs(iq, 1).empty());
}

TEST(IssueQueue, SelectionIsOldestFirstAcrossTheRingWrap)
{
    Rob rob(4);
    IssueQueue iq(4, rob);
    // Advance the ROB head so live entries straddle the slot wrap.
    for (InstSeqNum s = 1; s <= 3; ++s) {
        rob.push(makeInst(s));
        rob.popHead();
    }
    for (InstSeqNum s = 4; s <= 7; ++s)
        iq.insert(&rob.push(makeInst(s)), nullptr, nullptr, 0);
    EXPECT_EQ(selectSeqs(iq, 1), (Seqs{4, 5, 6, 7}));
}

TEST(Wakeup, ConsumerBecomesReadyAtProducerCompletion)
{
    Rob rob(8);
    IssueQueue iq(8, rob);
    DynInst &p = rob.push(makeInst(1, 2));
    DynInst &c = rob.push(makeInst(2));
    iq.insert(&p, nullptr, nullptr, 0);
    iq.insert(&c, &p, nullptr, 0);
    EXPECT_EQ(c.src[0], &p);
    EXPECT_EQ(c.pending, 1u);
    EXPECT_EQ(p.waiters.inst(), &c);
    EXPECT_EQ(selectSeqs(iq, 1), (Seqs{1}));

    issueAt(iq, p, 1, 5); // completes at 6
    EXPECT_EQ(c.src[0], nullptr);
    EXPECT_EQ(c.pending, 0u);
    EXPECT_EQ(c.readyTick, 6u);
    EXPECT_EQ(p.waiters.inst(), nullptr);
    for (Tick t = 2; t < 6; ++t)
        EXPECT_TRUE(selectSeqs(iq, t).empty()) << t;
    EXPECT_EQ(selectSeqs(iq, 6), (Seqs{2}));
}

TEST(Wakeup, TwoProducersReadyAtTheLaterCompletion)
{
    Rob rob(8);
    IssueQueue iq(8, rob);
    DynInst &p0 = rob.push(makeInst(1, 2));
    DynInst &p1 = rob.push(makeInst(2, 3));
    DynInst &c = rob.push(makeInst(3));
    iq.insert(&p0, nullptr, nullptr, 0);
    iq.insert(&p1, nullptr, nullptr, 0);
    iq.insert(&c, &p0, &p1, 0);
    EXPECT_EQ(c.pending, 2u);

    issueAt(iq, p1, 1, 20); // completes at 21
    EXPECT_EQ(c.pending, 1u);
    EXPECT_EQ(c.src[1], nullptr);
    EXPECT_EQ(c.src[0], &p0);
    issueAt(iq, p0, 2, 3); // completes at 5: earlier, issued later
    EXPECT_EQ(c.pending, 0u);
    EXPECT_EQ(c.readyTick, 21u);
    EXPECT_TRUE(selectSeqs(iq, 20).empty());
    EXPECT_EQ(selectSeqs(iq, 21), (Seqs{3}));
}

TEST(Wakeup, SameProducerOnBothSources)
{
    Rob rob(8);
    IssueQueue iq(8, rob);
    DynInst &p = rob.push(makeInst(1, 2));
    DynInst &c = rob.push(makeInst(2));
    iq.insert(&p, nullptr, nullptr, 0);
    iq.insert(&c, &p, &p, 0);
    EXPECT_EQ(c.pending, 2u);
    issueAt(iq, p, 1, 2);
    EXPECT_EQ(c.pending, 0u);
    EXPECT_EQ(c.src[0], nullptr);
    EXPECT_EQ(c.src[1], nullptr);
    EXPECT_EQ(selectSeqs(iq, 3), (Seqs{2}));
}

TEST(Wakeup, IssuedProducerCreatesNoLink)
{
    Rob rob(8);
    IssueQueue iq(8, rob);
    DynInst &p = rob.push(makeInst(1, 2));
    iq.insert(&p, nullptr, nullptr, 0);
    issueAt(iq, p, 1, 8); // completes at 9
    DynInst &c = rob.push(makeInst(2));
    iq.insert(&c, &p, nullptr, 2);
    EXPECT_EQ(c.src[0], nullptr);
    EXPECT_EQ(c.pending, 0u);
    EXPECT_EQ(c.readyTick, 9u);
    EXPECT_EQ(p.waiters.inst(), nullptr);
    EXPECT_TRUE(selectSeqs(iq, 8).empty());
    EXPECT_EQ(selectSeqs(iq, 9), (Seqs{2}));

    // A completed producer makes the consumer ready at once.
    DynInst &d = rob.push(makeInst(3));
    iq.insert(&d, &p, nullptr, 12);
    EXPECT_EQ(d.pending, 0u);
    EXPECT_EQ(selectSeqs(iq, 12), (Seqs{2, 3}));
}

TEST(Wakeup, LongLatenciesAndTickJumps)
{
    Rob rob(8);
    IssueQueue iq(8, rob);
    DynInst &miss = rob.push(makeInst(1, 2));
    DynInst &alu = rob.push(makeInst(2, 3));
    DynInst &c0 = rob.push(makeInst(3));
    DynInst &c1 = rob.push(makeInst(4));
    iq.insert(&miss, nullptr, nullptr, 0);
    iq.insert(&alu, nullptr, nullptr, 0);
    iq.insert(&c0, &miss, nullptr, 0);
    iq.insert(&c1, &alu, nullptr, 0);
    issueAt(iq, miss, 1, 500); // far beyond one turn of the wheel
    issueAt(iq, alu, 1, 10);
    // Time jumps (as fast-forward makes it) straight past c1's tick
    // and then up to c0's.
    EXPECT_EQ(selectSeqs(iq, 100), (Seqs{4}));
    EXPECT_EQ(selectSeqs(iq, 500), (Seqs{4}));
    EXPECT_EQ(selectSeqs(iq, 501), (Seqs{3, 4}));
}

TEST(Wakeup, SquashWithPendingWaitersLeavesNoStaleLink)
{
    Rob rob(4);
    IssueQueue iq(4, rob);
    DynInst &p = rob.push(makeInst(1, 2));
    DynInst &c = rob.push(makeInst(2));
    iq.insert(&p, nullptr, nullptr, 0);
    iq.insert(&c, &p, nullptr, 0);
    ASSERT_EQ(p.waiters.inst(), &c);

    // Thread-switch drain, then the other thread refills the same
    // slots.
    iq.squashAll();
    rob.squashAll();
    DynInst &q = rob.push(makeInst(50, 4));
    DynInst &d = rob.push(makeInst(51));
    ASSERT_EQ(&q, &p); // the drained slots are reused
    EXPECT_EQ(q.waiters.inst(), nullptr);
    EXPECT_EQ(d.src[0], nullptr);
    EXPECT_EQ(d.pending, 0u);

    iq.insert(&q, nullptr, nullptr, 10);
    iq.insert(&d, &q, nullptr, 10);
    issueAt(iq, q, 11, 1);
    EXPECT_EQ(d.pending, 0u);
    EXPECT_EQ(d.readyTick, 12u);
    EXPECT_EQ(q.waiters.inst(), nullptr);
    EXPECT_EQ(selectSeqs(iq, 12), (Seqs{51}));
}

TEST(DynInst, ReadinessSemantics)
{
    DynInst p;
    p.issued = true;
    p.completionTick = 100;
    EXPECT_FALSE(p.completedBy(99));
    EXPECT_TRUE(p.completedBy(100));

    DynInst c;
    c.readyTick = 100;
    EXPECT_FALSE(c.operandsReady(99));
    EXPECT_TRUE(c.operandsReady(100));
    c.pending = 1;
    EXPECT_FALSE(c.operandsReady(100));
}
