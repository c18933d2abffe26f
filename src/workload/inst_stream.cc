#include "workload/inst_stream.hh"

namespace soefair
{
namespace workload
{

void
InstStream::generate()
{
    if (count == ring.size()) {
        std::vector<isa::MicroOp> grown(2 * ring.size());
        for (std::size_t i = 0; i < count; ++i)
            grown[i] = ring[wrap(head + i)];
        ring.swap(grown);
        head = 0;
    }
    isa::MicroOp &op = ring[wrap(head + count)];
    gen.nextInto(op);
    soefair_assert(count == 0 || op.seqNum == headSeq + count,
                   "generator seqNums not contiguous");
    if (count == 0)
        headSeq = op.seqNum;
    ++count;
}

void
InstStream::squashAfter(InstSeqNum seq)
{
    if (count == 0) {
        soefair_assert(seq == invalidSeqNum || readIdx == 0,
                       "squash with empty window");
        readIdx = 0;
        return;
    }
    const InstSeqNum front = headSeq;
    if (seq == invalidSeqNum || seq + 1 < front) {
        readIdx = 0;
        return;
    }
    // Ops are buffered with contiguous seqNums.
    std::size_t idx = std::size_t(seq + 1 - front);
    soefair_assert(idx <= count,
                   "squashAfter(", seq, ") beyond generated stream");
    readIdx = idx;
}

} // namespace workload
} // namespace soefair
