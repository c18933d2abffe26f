/**
 * @file
 * Fixed-capacity FIFO ring of DynInsts with stable slots.
 *
 * The ROB and the fetch buffer are bounded FIFOs whose entries are
 * pointed at by the rename table, issue queue, load/store queues and
 * other entries' dependence links. The ring allocates its slots once
 * at construction: an entry's address never changes between push
 * and pop (slots are reused only after the entry left the
 * structure), and steady-state simulation does no heap allocation.
 * Every index the ring wraps is below twice its capacity, so
 * wrapping is one compare and subtract rather than a division.
 */

#ifndef SOEFAIR_CPU_INST_RING_HH
#define SOEFAIR_CPU_INST_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace cpu
{

class InstRing
{
  public:
    explicit InstRing(std::size_t capacity) : slots(capacity)
    {
        soefair_assert(capacity > 0,
                       "InstRing capacity must be positive");
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == slots.size(); }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    /** Append at the tail; returns the stable slot. */
    DynInst &
    pushBack(DynInst &&inst)
    {
        soefair_assert(!full(), "push to full InstRing");
        DynInst &slot = slots[wrap(head + count)];
        slot = std::move(inst);
        ++count;
        return slot;
    }

    /**
     * Append an entry equal to DynInst{} but for its op, for the
     * caller to fill further. The slot is reset in place (see
     * DynInst::reset), never built elsewhere and copied over.
     */
    DynInst &
    emplaceBack(const isa::MicroOp &op)
    {
        soefair_assert(!full(), "push to full InstRing");
        DynInst &slot = slots[wrap(head + count)];
        slot.reset(op);
        ++count;
        return slot;
    }

    DynInst &
    front()
    {
        soefair_assert(!empty(), "front of empty InstRing");
        return slots[head];
    }

    const DynInst &
    front() const
    {
        soefair_assert(!empty(), "front of empty InstRing");
        return slots[head];
    }

    DynInst &
    back()
    {
        soefair_assert(!empty(), "back of empty InstRing");
        return slots[wrap(head + count - 1)];
    }

    /**
     * Physical slot numbers, in [0, capacity()): stable for an
     * entry's lifetime; slot(headSlot()) is the front.
     */
    std::size_t headSlot() const { return head; }
    std::size_t slotOf(const DynInst &e) const
    {
        return std::size_t(&e - slots.data());
    }
    DynInst &slot(std::size_t i) { return slots[i]; }

    /** i-th oldest entry (0 = front). */
    DynInst &at(std::size_t i) { return slots[wrap(head + i)]; }
    const DynInst &
    at(std::size_t i) const
    {
        return slots[wrap(head + i)];
    }

    void
    popFront()
    {
        soefair_assert(!empty(), "pop of empty InstRing");
        head = wrap(head + 1);
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Oldest-first iteration (range-for). */
    template <typename Ring, typename Value>
    class Iter
    {
      public:
        Iter(Ring *ring, std::size_t index) : r(ring), i(index) {}
        Value &operator*() const { return r->at(i); }
        Value *operator->() const { return &r->at(i); }
        Iter &
        operator++()
        {
            ++i;
            return *this;
        }
        bool operator==(const Iter &o) const { return i == o.i; }
        bool operator!=(const Iter &o) const { return i != o.i; }

      private:
        Ring *r;
        std::size_t i;
    };

    using iterator = Iter<InstRing, DynInst>;
    using const_iterator = Iter<const InstRing, const DynInst>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    /** i mod capacity, for i < 2 * capacity. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i < slots.size() ? i : i - slots.size();
    }

    std::vector<DynInst> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_INST_RING_HH
