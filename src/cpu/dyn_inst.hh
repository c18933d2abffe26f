/**
 * @file
 * Dynamic (in-flight) instruction record.
 *
 * A DynInst is built in its fetch-buffer slot and moved once, at
 * dispatch, into its ROB slot, where it stays until retirement or a
 * squash. The rename table, issue queue, load/store queues and other
 * DynInsts' dependence links hold pointers into the ROB's InstRing:
 * its slots are preallocated, so an entry's address is stable from
 * push to pop.
 *
 * Dependence links follow one rule: a consumer's src[i] names a
 * producer only while that producer is in the ROB and has not
 * issued. At dispatch a consumer links itself onto each such
 * producer's waiter list; when the producer issues it sets its
 * completionTick, the one time it is ever set, pushes it into each
 * waiter's readyTick and clears their src pointers. A producer
 * retires only after it issued, so a src pointer never outlives its
 * target. A squash drops the whole ROB at once, links included.
 */

#ifndef SOEFAIR_CPU_DYN_INST_HH
#define SOEFAIR_CPU_DYN_INST_HH

#include <cstdint>

#include "cpu/branch_predictor.hh"
#include "isa/micro_op.hh"
#include "sim/types.hh"

namespace soefair
{
namespace cpu
{

struct DynInst;

/**
 * One consumer operand waiting on a producer: the consumer and the
 * index of its src slot, packed into one word (DynInsts are at least
 * 2-byte aligned, so the pointer's low bit is free for the index).
 */
class WaiterLink
{
  public:
    WaiterLink() = default;
    WaiterLink(DynInst *inst, unsigned src_idx)
        : bits(reinterpret_cast<std::uintptr_t>(inst) | src_idx)
    {}

    DynInst *
    inst() const
    {
        return reinterpret_cast<DynInst *>(bits & ~std::uintptr_t(1));
    }
    unsigned srcIdx() const { return unsigned(bits & 1); }
    explicit operator bool() const { return bits != 0; }

  private:
    std::uintptr_t bits = 0;
};

struct DynInst
{
    isa::MicroOp op;

    /** Earliest tick the dispatch stage may consume this op. */
    Tick dispatchReadyTick = 0;
    /**
     * Latest completion tick of the producers that have issued; the
     * op's operands are all available from here once pending is 0.
     */
    Tick readyTick = 0;
    /** Data-available tick, set once at issue. */
    Tick completionTick = maxTick;

    /**
     * Producers of the source operands that have not issued yet;
     * nullptr once the operand's arrival tick is folded into
     * readyTick (see the file comment).
     */
    DynInst *src[2] = {nullptr, nullptr};
    /** Head of the list of operands waiting on this op's result. */
    WaiterLink waiters;
    /** Next link after src[i] in that producer's waiter list. */
    WaiterLink nextWaiter[2];

    /** Prediction made at fetch; trained when the branch executes. */
    BranchPredictor::Prediction pred;

    ThreadID tid = 0;
    /** Number of non-null src entries. */
    std::uint8_t pending = 0;

    bool inRob = false;
    bool inIq = false;
    bool issued = false;

    /** Load or TLB walk reached main memory (the SOE switch event). */
    bool l2Miss = false;
    /** Load missed the L1D (Section 6's extended switch event). */
    bool l1Miss = false;

    /** Front end could not follow this branch (known at fetch). */
    bool mispredicted = false;

    bool
    completedBy(Tick now) const
    {
        return issued && completionTick <= now;
    }

    /** All operands are available at `now`. */
    bool
    operandsReady(Tick now) const
    {
        return pending == 0 && readyTick <= now;
    }

    /**
     * Make this entry equal to DynInst{} with `o` as its op. Stores
     * each field once: constructing a fresh DynInst over the slot
     * first zero-fills all of it (a `rep stos` per fetched op) and
     * then writes the op over the zeros.
     */
    void
    reset(const isa::MicroOp &o)
    {
        op = o;
        dispatchReadyTick = 0;
        readyTick = 0;
        completionTick = maxTick;
        src[0] = nullptr;
        src[1] = nullptr;
        waiters = WaiterLink();
        nextWaiter[0] = WaiterLink();
        nextWaiter[1] = WaiterLink();
        pred = BranchPredictor::Prediction();
        tid = 0;
        pending = 0;
        inRob = false;
        inIq = false;
        issued = false;
        l2Miss = false;
        l1Miss = false;
        mispredicted = false;
    }
};

static_assert(alignof(DynInst) >= 2, "WaiterLink packs into bit 0");
// reset() names every field: a new field changes the size, and must
// be added there too.
static_assert(sizeof(DynInst) == 144, "revisit DynInst::reset()");

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_DYN_INST_HH
