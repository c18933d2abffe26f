/**
 * @file
 * Unified issue queue (reservation stations) with wakeup/select.
 *
 * Entries wait here from dispatch until their operands are available
 * and a functional unit is free. Selection is oldest-first, which
 * both matches P6-style schedulers closely enough and keeps runs
 * deterministic.
 *
 * The queue never polls producers. At dispatch an entry links onto
 * each producer that has not issued (DynInst::src, waiter lists);
 * when a producer issues it wakes its waiters with its completion
 * tick. An entry with nothing pending waits for its readyTick in a
 * timing wheel (or, beyond the wheel's horizon, a short overflow
 * list), then joins a ready set indexed by ROB slot, which select()
 * walks in age order from the ROB head. An entry is therefore
 * offered for issue at exactly the ticks the operand check "every
 * producer issued and completed by now" passes.
 */

#ifndef SOEFAIR_CPU_ISSUE_QUEUE_HH
#define SOEFAIR_CPU_ISSUE_QUEUE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "cpu/rob.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

class IssueQueue
{
  public:
    /** @param reorder_buffer The ROB every entry lives in. */
    IssueQueue(unsigned capacity, Rob &reorder_buffer);

    bool full() const { return count >= cap; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /**
     * Dispatch `inst`, already in the ROB, at `now`. p0/p1 are the
     * rename table's producers of its sources (nullptr when the
     * value is architectural). inst links onto each producer that has
     * not issued; an issued one only raises inst's readyTick.
     */
    void insert(DynInst *inst, DynInst *p0, DynInst *p1, Tick now);

    /**
     * Offer each entry whose operands are available at `now` to
     * `fn`, oldest first, until `fn` returns false. `fn` may issue()
     * the entry it is given.
     */
    template <typename Fn>
    void
    select(Tick now, Fn &&fn)
    {
        promote(now);
        // Walk the ready bits in age order: from the ROB head's slot
        // to the end, then wrap round to the slots before the head.
        // Each word is copied before its bits are visited, so issuing
        // (which clears the visited bit, and wakes consumers only
        // into the wheel) cannot disturb the walk.
        const std::size_t head = rob.headSlot();
        const std::uint64_t below = (std::uint64_t(1) << (head % 64)) - 1;
        std::size_t w = head / 64;
        for (std::size_t n = 0; n <= words; ++n) {
            std::uint64_t bits = readyMask[w];
            if (n == 0)
                bits &= ~below;
            else if (n == words)
                bits &= below;
            while (bits) {
                const unsigned b = unsigned(std::countr_zero(bits));
                bits &= bits - 1;
                if (!fn(&rob.slot(w * 64 + b)))
                    return;
            }
            if (++w == words)
                w = 0;
        }
    }

    /**
     * `inst` issued at `now` with its completionTick set: it leaves
     * the queue and hands that tick to every operand waiting on it.
     */
    void issue(DynInst *inst, Tick now);

    /** Drop everything (thread-switch drain). */
    void squashAll();

  private:
    /** Ticks covered by the wheel: one bit of busyBuckets each. */
    static constexpr Tick wheelTicks = 64;

    void link(DynInst *inst, unsigned i, DynInst *producer);
    /** inst has nothing pending: queue it by its readyTick. */
    void schedule(DynInst *inst, Tick now);
    /** Move every waiting entry whose readyTick <= now to the mask. */
    void promote(Tick now);
    void promoteDistant(Tick now);

    static void
    setBit(std::uint64_t *mask, std::size_t slot)
    {
        mask[slot / 64] |= std::uint64_t(1) << (slot % 64);
    }

    unsigned cap;
    Rob &rob;
    std::size_t count = 0;
    /** 64-bit words per slot mask. */
    std::size_t words;
    /** Bit s: the entry in ROB slot s is queued with readyTick <= now. */
    std::vector<std::uint64_t> readyMask;
    /**
     * Slot masks of entries that become ready at a later tick, one
     * mask per tick modulo wheelTicks. Every entry in it has a
     * readyTick in (promotedTo, promotedTo + wheelTicks), so bucket
     * t % wheelTicks holds exactly the entries due at tick t.
     */
    std::vector<std::uint64_t> wheel;
    /** Bit b: wheel bucket b holds an entry. */
    std::uint64_t busyBuckets = 0;
    /** Last tick promote() ran for. */
    Tick promotedTo = 0;
    /** Entries due beyond the wheel's horizon, and their earliest tick. */
    std::vector<DynInst *> distant;
    Tick distantMin = maxTick;
};

inline void
IssueQueue::link(DynInst *inst, unsigned i, DynInst *producer)
{
    inst->src[i] = producer;
    inst->nextWaiter[i] = producer->waiters;
    producer->waiters = {inst, i};
    ++inst->pending;
}

inline void
IssueQueue::schedule(DynInst *inst, Tick now)
{
    const Tick t = inst->readyTick;
    if (t <= now) {
        setBit(readyMask.data(), rob.slotOf(*inst));
    } else if (t - promotedTo < wheelTicks) {
        // promotedTo <= now < t, so t is inside the wheel's window.
        const Tick b = t % wheelTicks;
        setBit(&wheel[b * words], rob.slotOf(*inst));
        busyBuckets |= std::uint64_t(1) << b;
    } else {
        distant.push_back(inst);
        distantMin = std::min(distantMin, t);
    }
}

inline void
IssueQueue::insert(DynInst *inst, DynInst *p0, DynInst *p1, Tick now)
{
    soefair_assert(!full(), "insert to full IQ");
    inst->inIq = true;
    ++count;
    DynInst *producers[2] = {p0, p1};
    for (unsigned i = 0; i < 2; ++i) {
        DynInst *p = producers[i];
        if (!p)
            continue;
        if (!p->issued)
            link(inst, i, p);
        else if (p->completionTick > inst->readyTick)
            inst->readyTick = p->completionTick;
    }
    if (inst->pending == 0)
        schedule(inst, now);
}

inline void
IssueQueue::issue(DynInst *inst, Tick now)
{
    soefair_assert(inst->inIq && inst->operandsReady(now),
                   "issuing an op that is not ready");
    soefair_assert(inst->completionTick > now,
                   "an op's result must arrive after its issue tick");
    const std::size_t slot = rob.slotOf(*inst);
    readyMask[slot / 64] &= ~(std::uint64_t(1) << (slot % 64));
    inst->inIq = false;
    --count;

    WaiterLink w = inst->waiters;
    inst->waiters = {};
    while (w) {
        DynInst *c = w.inst();
        const WaiterLink next = c->nextWaiter[w.srcIdx()];
        c->nextWaiter[w.srcIdx()] = {};
        c->src[w.srcIdx()] = nullptr;
        if (inst->completionTick > c->readyTick)
            c->readyTick = inst->completionTick;
        if (--c->pending == 0)
            schedule(c, now);
        w = next;
    }
}

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_ISSUE_QUEUE_HH
