#include "workload/program.hh"

#include "sim/logging.hh"

namespace soefair
{
namespace workload
{

Program::Program(const CodeShape &shape, std::uint64_t seed,
                 Addr code_base)
    : base(code_base)
{
    soefair_assert(shape.numBlocks >= 2, "program needs >= 2 blocks");
    soefair_assert(shape.blockLenMin >= 2,
                   "blocks need at least one body op and a terminator");
    soefair_assert(shape.blockLenMin <= shape.blockLenMax,
                   "bad block length range");

    Rng rng(deriveSeed(seed, 0xC0DE));
    const std::uint32_t n = shape.numBlocks;
    blocks.resize(n);

    Addr pc = base;
    for (std::uint32_t i = 0; i < n; ++i) {
        BasicBlock &b = blocks[i];
        b.startPc = pc;
        b.length = std::uint32_t(
            rng.inRange(shape.blockLenMin, shape.blockLenMax));
        pc += Addr(4) * b.length;
        instrCount += b.length;

        b.uncondTerminator = rng.chance(shape.uncondFrac);
        if (rng.chance(shape.flakyBranchFrac)) {
            // Data-dependent branch: near-coin-flip bias.
            b.takenBias = 0.35 + 0.30 * rng.real();
        } else {
            // Strongly biased branch (loop back-edges, error paths).
            b.takenBias = rng.chance(0.5) ? 0.98 : 0.02;
        }
        if (b.uncondTerminator)
            b.takenBias = 1.0;
        b.takenBound = Rng::threshold(b.takenBias);

        // Taken targets are mostly loop-local (within a small window
        // around the block) to give the code stream temporal
        // locality; a minority are long-range jumps that spread the
        // instruction footprint.
        std::uint32_t target;
        if (rng.chance(0.7)) {
            std::uint64_t lo = i >= 8 ? i - 8 : 0;
            std::uint64_t hi = std::uint64_t(i) + 8 < n
                ? std::uint64_t(i) + 8 : n - 1;
            target = std::uint32_t(rng.inRange(lo, hi));
        } else {
            target = std::uint32_t(rng.below(n));
        }
        if (target == i) // self-loop pcs confuse nothing, but avoid
            target = (i + 1) % n;
        b.takenSucc = target;
        b.fallSucc = (i + 1) % n;
    }
}

} // namespace workload
} // namespace soefair
