/**
 * @file
 * Replay window between a generator and the core's front end.
 *
 * An out-of-order core squashes and refetches instructions (branch
 * mispredicts, thread-switch drains). The generator is forward-only,
 * so InstStream buffers every generated-but-unretired micro-op: a
 * squash simply rewinds the read cursor and the same ops are handed
 * out again, guaranteeing that the retired stream is independent of
 * timing. Retirement trims the buffer from the front.
 *
 * The window is a power-of-two ring that doubles when generation
 * finds it full. A reference returned by peek() or fetchNext() is
 * therefore valid only until the next call that generates, i.e. the
 * next peek()/fetchNext() made with the cursor at the end of the
 * window; copy the op before calling again if in doubt.
 */

#ifndef SOEFAIR_WORKLOAD_INST_STREAM_HH
#define SOEFAIR_WORKLOAD_INST_STREAM_HH

#include <cstddef>
#include <vector>

#include "isa/micro_op.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "workload/generator.hh"

namespace soefair
{
namespace workload
{

class InstStream
{
  public:
    explicit InstStream(WorkloadGenerator &g) : gen(g), ring(256) {}

    /** Next micro-op at the fetch cursor (generates on demand). */
    const isa::MicroOp &
    fetchNext()
    {
        const isa::MicroOp &op = peek();
        ++readIdx;
        return op;
    }

    /** Peek the op that fetchNext() would return, without advancing. */
    const isa::MicroOp &
    peek()
    {
        if (readIdx == count)
            generate();
        return ring[wrap(head + readIdx)];
    }

    /**
     * Rewind the fetch cursor so the op *after* seq is fetched next.
     * seq = 0 (invalidSeqNum) rewinds to the oldest unretired op.
     * Every op with seqNum > seq must still be buffered.
     */
    void squashAfter(InstSeqNum seq);

    /** Retire (drop) all buffered ops with seqNum <= seq. */
    void
    commitUpTo(InstSeqNum seq)
    {
        // headSeq mirrors ring[head].seqNum, so retiring does not
        // touch the (long since fetched) ring entry.
        while (count != 0 && headSeq <= seq) {
            soefair_assert(readIdx > 0,
                           "committing an op that was never fetched");
            head = wrap(head + 1);
            ++headSeq;
            --count;
            --readIdx;
        }
    }

    /** Number of buffered (unretired) ops. */
    std::size_t buffered() const { return count; }

    /** Sequence number of the oldest unretired op (0 if none). */
    InstSeqNum oldestSeq() const { return count == 0 ? invalidSeqNum : headSeq; }

  private:
    /** Append the generator's next op, doubling the ring if full. */
    void generate();

    std::size_t wrap(std::size_t i) const { return i & (ring.size() - 1); }

    WorkloadGenerator &gen;
    /** Buffered ops, oldest at ring[head]; size is a power of two. */
    std::vector<isa::MicroOp> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    /** Offset from head of the next op to hand to fetch. */
    std::size_t readIdx = 0;
    /**
     * seqNum of ring[head] when count > 0. Buffered ops have
     * contiguous seqNums (generate() checks), so ring[head + i]
     * holds headSeq + i.
     */
    InstSeqNum headSeq = invalidSeqNum;
};

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_INST_STREAM_HH
