/**
 * @file
 * Unit tests for the fetch/squash/commit replay window and the
 * producer thread that fills it ahead of fetch. Each stream's ops are
 * checked against a second generator built from the same (profile,
 * thread id, seed), so a lost, duplicated or torn op shows, also
 * across a ring wrap and a batch boundary.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "workload/generator.hh"
#include "workload/inst_stream.hh"
#include "workload/profile.hh"

using namespace soefair;
using namespace soefair::workload;

namespace
{

constexpr InstSeqNum capacity = InstStream::capacity;
constexpr InstSeqNum batch = InstStream::batch;

WorkloadGenerator
gccGenerator()
{
    return WorkloadGenerator(spec::byName("gcc"), 0, 21);
}

struct Fixture
{
    Fixture() : gen(spec::byName("gcc"), 0, 21), stream(gen) {}
    WorkloadGenerator gen;
    InstStream stream;
};

/** The first n ops of the fixture's stream, generated inline. */
std::vector<isa::MicroOp>
reference(std::size_t n)
{
    WorkloadGenerator ref(spec::byName("gcc"), 0, 21);
    std::vector<isa::MicroOp> ops(n);
    for (auto &op : ops)
        ref.nextInto(op);
    return ops;
}

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
    EXPECT_EQ(got.taken, want.taken);
    EXPECT_EQ(got.target, want.target);
}

/** Fetch and retire in lockstep until `seq` is the next op to fetch. */
void
advanceTo(InstStream &stream, InstSeqNum seq)
{
    while (stream.peek().seqNum < seq) {
        const InstSeqNum s = stream.fetchNext().seqNum;
        stream.commitUpTo(s);
    }
}

} // namespace

TEST(InstStream, FetchIsSequential)
{
    Fixture f;
    for (InstSeqNum i = 1; i <= 100; ++i)
        EXPECT_EQ(f.stream.fetchNext().seqNum, i);
}

TEST(InstStream, PeekDoesNotAdvance)
{
    Fixture f;
    EXPECT_EQ(f.stream.peek().seqNum, 1u);
    EXPECT_EQ(f.stream.peek().seqNum, 1u);
    EXPECT_EQ(f.stream.fetchNext().seqNum, 1u);
    EXPECT_EQ(f.stream.peek().seqNum, 2u);
}

TEST(InstStream, SquashReplaysIdenticalOps)
{
    Fixture f;
    std::vector<isa::MicroOp> first;
    for (int i = 0; i < 50; ++i)
        first.push_back(f.stream.fetchNext());

    // Retire the first 10, squash the rest.
    f.stream.commitUpTo(10);
    f.stream.squashAfter(10);

    for (int i = 10; i < 50; ++i) {
        const isa::MicroOp &op = f.stream.fetchNext();
        EXPECT_EQ(op.seqNum, first[std::size_t(i)].seqNum);
        EXPECT_EQ(op.pc, first[std::size_t(i)].pc);
        EXPECT_EQ(op.memAddr, first[std::size_t(i)].memAddr);
        EXPECT_EQ(op.taken, first[std::size_t(i)].taken);
    }
}

TEST(InstStream, SquashToOldestUnretired)
{
    Fixture f;
    for (int i = 0; i < 30; ++i)
        f.stream.fetchNext();
    f.stream.commitUpTo(12);
    f.stream.squashAfter(invalidSeqNum); // full squash
    EXPECT_EQ(f.stream.fetchNext().seqNum, 13u);
}

TEST(InstStream, CommitTrimsWindow)
{
    Fixture f;
    for (int i = 0; i < 100; ++i)
        f.stream.fetchNext();
    EXPECT_EQ(f.stream.buffered(), 100u);
    f.stream.commitUpTo(60);
    EXPECT_EQ(f.stream.buffered(), 40u);
    EXPECT_EQ(f.stream.oldestSeq(), 61u);
}

TEST(InstStream, CommitThenFetchContinues)
{
    Fixture f;
    for (int i = 0; i < 20; ++i)
        f.stream.fetchNext();
    f.stream.commitUpTo(20);
    EXPECT_EQ(f.stream.buffered(), 0u);
    EXPECT_EQ(f.stream.fetchNext().seqNum, 21u);
}

TEST(InstStream, RepeatedSquashReplayIsStable)
{
    Fixture f;
    std::vector<Addr> pcs;
    for (int i = 0; i < 40; ++i)
        pcs.push_back(f.stream.fetchNext().pc);
    for (int round = 0; round < 5; ++round) {
        f.stream.squashAfter(invalidSeqNum);
        for (int i = 0; i < 40; ++i)
            EXPECT_EQ(f.stream.fetchNext().pc, pcs[std::size_t(i)]);
    }
}

TEST(InstStream, WindowBoundedByCommit)
{
    // Fetch+commit in lockstep keeps the window small regardless of
    // total instructions, and the stream stays the generator's.
    Fixture f;
    const std::vector<isa::MicroOp> want = reference(100000);
    for (int i = 1; i <= 100000; ++i) {
        expectSameOp(f.stream.fetchNext(), want[std::size_t(i - 1)]);
        if (i % 64 == 0)
            f.stream.commitUpTo(InstSeqNum(i - 32));
        ASSERT_LE(f.stream.buffered(), 96u);
    }
}

TEST(InstStream, StartsAtTheGeneratorsNextOp)
{
    // Ops the generator made before the stream (functional warmup)
    // are not replayed.
    const std::vector<isa::MicroOp> want = reference(1100);
    WorkloadGenerator gen = gccGenerator();
    for (int i = 0; i < 1000; ++i)
        gen.next();
    InstStream stream(gen);
    EXPECT_EQ(stream.oldestSeq(), 1001u);
    for (std::size_t i = 1000; i < 1100; ++i)
        expectSameOp(stream.fetchNext(), want[i]);
}

TEST(InstStream, SquashReplaysAcrossRingWrap)
{
    // Twenty ops before the end of the ring's first lap, fetch sixty
    // more (crossing the wrap, which is also a batch boundary) and
    // squash them all: the replay reads the same slots again.
    Fixture f;
    const std::vector<isa::MicroOp> want = reference(3 * capacity);
    const InstSeqNum start = capacity - 20 + 1;
    advanceTo(f.stream, start);
    for (InstSeqNum s = start; s < start + 60; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);
    f.stream.squashAfter(invalidSeqNum);
    EXPECT_EQ(f.stream.buffered(), 0u);
    for (InstSeqNum s = start; s < start + 60; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);

    // A partial squash into the second lap replays from there.
    f.stream.commitUpTo(start + 9);
    f.stream.squashAfter(capacity + 5);
    for (InstSeqNum s = capacity + 6; s < start + 60; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);
}

TEST(InstStream, SquashReplaysAcrossBatchBoundary)
{
    // Squash back over the end of a producer batch in mid-lap: the
    // ops on both sides of it came from two different publishes.
    Fixture f;
    const std::vector<isa::MicroOp> want = reference(2 * capacity);
    const InstSeqNum boundary = 3 * batch + 1; // first op of batch 3
    advanceTo(f.stream, boundary - 10);
    for (InstSeqNum s = boundary - 10; s < boundary + 10; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);
    f.stream.commitUpTo(boundary - 6);
    f.stream.squashAfter(boundary - 3);
    for (InstSeqNum s = boundary - 2; s < boundary + 10; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);
    // A seq that already retired rewinds to the oldest unretired op.
    f.stream.squashAfter(boundary - 8);
    EXPECT_EQ(f.stream.fetchNext().seqNum, boundary - 5);
}

TEST(InstStream, CommitFreesSlotsTheProducerRefills)
{
    // With a whole ring fetched and nothing retired, the producer
    // has nowhere to write. Retiring one batch lets it refill those
    // slots with the next lap's ops.
    Fixture f;
    const std::vector<isa::MicroOp> want = reference(capacity + batch);
    for (InstSeqNum s = 1; s <= capacity; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);
    EXPECT_EQ(f.stream.buffered(), capacity);
    f.stream.commitUpTo(batch);
    for (InstSeqNum s = capacity + 1; s <= capacity + batch; ++s)
        expectSameOp(f.stream.fetchNext(), want[s - 1]);
    // The refilled slots replay too.
    f.stream.squashAfter(capacity);
    expectSameOp(f.stream.fetchNext(), want[capacity]);
}

TEST(InstStream, OverfullWindowPanicsInsteadOfWaiting)
{
    // A core holding a whole ring of unretired ops would wait forever
    // on a producer that waits for a retirement.
    Fixture f;
    for (InstSeqNum s = 1; s <= capacity; ++s)
        f.stream.fetchNext();
    EXPECT_THROW(f.stream.peek(), PanicError);
}

TEST(InstStream, DestroyWhileProducerBlockedOnFullRing)
{
    WorkloadGenerator gen = gccGenerator();
    auto stream = std::make_unique<InstStream>(gen);
    stream->fetchNext();
    // The producer stops once a whole ring is generated.
    while (gen.generated() < capacity)
        std::this_thread::yield();
    EXPECT_EQ(gen.generated(), capacity);
    stream.reset(); // returns: the producer was woken and joined
    EXPECT_EQ(InstStream::liveProducers(), 0u);
}

TEST(InstStream, DestroyStreamThatNeverFetched)
{
    // Whatever the producer is doing: not yet scheduled, generating,
    // or blocked on the full ring.
    WorkloadGenerator gen = gccGenerator();
    for (int i = 0; i < 50; ++i) {
        InstStream stream(gen);
        EXPECT_EQ(InstStream::liveProducers(), 1u);
    }
    EXPECT_EQ(InstStream::liveProducers(), 0u);
}

TEST(InstStream, GeneratorPanicIsRethrownAtTheFailingOp)
{
    // Phase 1 has an invalid geometric parameter, so the generator
    // panics (on the producer thread) making op phaseLen + 1. Every
    // op before it is fetched intact; that fetch rethrows the panic,
    // as generating inline would have.
    constexpr std::uint64_t phaseLen = 3 * batch + 17;
    Profile prof = spec::byName("gcc");
    Phase bad = prof.phases[0];
    bad.depGeoP = 0.0;
    prof.phases.resize(1);
    prof.phases[0].duration = phaseLen;
    prof.phases.push_back(bad);
    WorkloadGenerator gen(prof, 0, 21);
    WorkloadGenerator ref(prof, 0, 21);
    InstStream stream(gen);
    for (std::uint64_t i = 0; i < phaseLen; ++i) {
        const isa::MicroOp &op = stream.fetchNext();
        expectSameOp(op, ref.next());
        stream.commitUpTo(op.seqNum);
    }
    EXPECT_THROW(stream.fetchNext(), PanicError);
    EXPECT_THROW(stream.peek(), PanicError); // and stays failed
}
