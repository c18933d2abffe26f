#include "workload/generator.hh"

#include <vector>

#include "sim/logging.hh"

namespace soefair
{
namespace workload
{

using isa::MicroOp;
using isa::OpClass;
using isa::RegId;

namespace
{

/** Non-branch classes a body slot may take, in sampler order. */
constexpr OpClass bodyClasses[] = {
    OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv,
    OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv,
    OpClass::Load, OpClass::Store, OpClass::Pause,
};

std::vector<double>
bodyWeights(const Phase &p)
{
    return {p.wIntAlu, p.wIntMul, p.wIntDiv,
            p.wFpAdd, p.wFpMul, p.wFpDiv,
            p.wLoad, p.wStore, p.wPause};
}

} // namespace

Addr
threadCodeBase(ThreadID tid)
{
    // Data regions occupy the low ~16 GiB of a thread's 1 TiB slice;
    // put code at +512 GiB.
    return (Addr(std::uint64_t(tid) + 1) << 40) + (Addr(1) << 39);
}

WorkloadGenerator::WorkloadGenerator(const Profile &profile,
                                     ThreadID thread_id,
                                     std::uint64_t seed)
    : prof(profile),
      tid(thread_id),
      masterSeed(seed),
      prog(std::make_shared<const Program>(
          profile.code, deriveSeed(seed, 1), threadCodeBase(thread_id))),
      rng(deriveSeed(seed, 2)),
      addrs(thread_id, deriveSeed(seed, 3))
{
    soefair_assert(!prof.phases.empty(), "profile has no phases");
    state.curBlock = prog->entryBlock();
    state.slotIdx = 0;
    enterPhase(0);
}

void
WorkloadGenerator::enterPhase(std::uint32_t idx)
{
    state.phaseIdx = idx % std::uint32_t(prof.numPhases());
    state.instrsInPhase = 0;
    const Phase &p = prof.phase(state.phaseIdx);
    soefair_assert(p.depGeoP > 0.0 && p.depGeoP <= 1.0,
                   "geometric p out of range");
    classSampler = DiscreteSampler(bodyWeights(p));
    addrs.setPhase(p);
    depNoneBound = Rng::threshold(p.depNone);
    depGeoBound = Rng::threshold(p.depGeoP);
    phaseDuration = p.duration;
}

void
WorkloadGenerator::maybeAdvancePhase()
{
    if (phaseDuration != 0 && state.instrsInPhase >= phaseDuration)
        enterPhase(state.phaseIdx + 1);
}

RegId
WorkloadGenerator::ringReg(std::uint64_t dyn_index) const
{
    return RegId(dyn_index % ringSize);
}

RegId
WorkloadGenerator::sampleDep()
{
    if (rng.chanceBelow(depNoneBound))
        return isa::invalidReg;
    std::uint64_t d = 1 + rng.geometricBelow(depGeoBound, maxDepDist - 1);
    if (d > state.dynCount)
        return isa::invalidReg; // before the start of the stream
    return ringReg(state.dynCount - d);
}

void
WorkloadGenerator::nextInto(MicroOp &op)
{
    maybeAdvancePhase();

    const BasicBlock &blk = prog->block(state.curBlock);
    const bool isTerminator = (state.slotIdx == blk.length - 1);

    op = MicroOp{};
    op.seqNum = state.nextSeqNum++;
    op.pc = blk.startPc + Addr(4) * state.slotIdx;

    if (isTerminator) {
        op.op = blk.uncondTerminator ? OpClass::BranchUncond
                                     : OpClass::BranchCond;
        op.taken = blk.uncondTerminator || rng.chanceBelow(blk.takenBound);
        op.target = prog->block(blk.takenSucc).startPc;
        if (op.op == OpClass::BranchCond)
            op.src0 = sampleDep();
        state.curBlock = op.taken ? blk.takenSucc : blk.fallSucc;
        state.slotIdx = 0;
    } else {
        op.op = bodyClasses[classSampler.sample(rng)];
        switch (op.op) {
          case OpClass::Load: {
            auto acc = addrs.nextLoad();
            op.memAddr = acc.addr;
            op.memSize = 8;
            if (acc.kind == RegionKind::Chase && state.chaseDepth > 0) {
                // Tie into the chase chain: this load's address
                // depends on the previous chase load's result.
                op.src0 = chaseReg;
            } else {
                op.src0 = sampleDep();
            }
            if (acc.kind == RegionKind::Chase) {
                op.dest = chaseReg;
                ++state.chaseDepth;
            } else {
                op.dest = ringReg(state.dynCount);
            }
            break;
          }
          case OpClass::Store: {
            auto acc = addrs.nextStore();
            op.memAddr = acc.addr;
            op.memSize = 8;
            op.src0 = sampleDep(); // data
            op.src1 = sampleDep(); // address
            break;
          }
          case OpClass::Pause:
            // No operands: a pure yield hint.
            break;
          default:
            op.src0 = sampleDep();
            op.src1 = sampleDep();
            op.dest = ringReg(state.dynCount);
            break;
        }
        ++state.slotIdx;
    }

    ++state.dynCount;
    ++state.instrsInPhase;
    generatedCount.store(state.dynCount, std::memory_order_relaxed);
}

} // namespace workload
} // namespace soefair
