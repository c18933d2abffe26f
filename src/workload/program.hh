/**
 * @file
 * The static shape of a synthetic program.
 *
 * A Program is built once from a (CodeShape, seed) pair and then
 * shared read-only by any number of generator instances. It fixes
 * everything a front end sees as *code*: basic-block boundaries,
 * instruction PCs, which slot is a branch, each conditional branch's
 * taken bias, and the CFG edges. The per-execution behaviour of
 * non-branch slots (op class, operands, addresses) is sampled
 * dynamically by the WorkloadGenerator from the active Phase.
 */

#ifndef SOEFAIR_WORKLOAD_PROGRAM_HH
#define SOEFAIR_WORKLOAD_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"
#include "workload/profile.hh"

namespace soefair
{
namespace workload
{

/** One static basic block. */
struct BasicBlock
{
    Addr startPc = 0;
    /** Instructions including the terminator. */
    std::uint32_t length = 0;
    /** True when the terminator is an unconditional branch. */
    bool uncondTerminator = false;
    /** Probability the (conditional) terminator is taken. */
    double takenBias = 0.5;
    /** Rng::threshold(takenBias), for the generator's draw. */
    std::uint64_t takenBound = Rng::threshold(0.5);
    /** Block index executed when the terminator is taken. */
    std::uint32_t takenSucc = 0;
    /** Block index for fall-through (not-taken). */
    std::uint32_t fallSucc = 0;

    Addr terminatorPc() const { return startPc + 4 * (length - 1); }
    Addr fallThroughPc() const { return startPc + 4 * length; }
};

class Program
{
  public:
    /**
     * Synthesize a program.
     *
     * @param shape Code shape parameters.
     * @param seed Construction seed (same seed -> same program).
     * @param code_base First instruction address; per-thread code
     *        slices keep instruction streams disjoint across
     *        threads, matching separate processes.
     */
    Program(const CodeShape &shape, std::uint64_t seed, Addr code_base);

    const BasicBlock &block(std::uint32_t i) const { return blocks.at(i); }
    std::uint32_t numBlocks() const { return std::uint32_t(blocks.size()); }

    /** Entry block index. */
    std::uint32_t entryBlock() const { return 0; }

    /** Total static instruction count (code footprint / 4 bytes). */
    std::uint64_t totalInstrs() const { return instrCount; }

    Addr codeBase() const { return base; }

  private:
    Addr base;
    std::vector<BasicBlock> blocks;
    std::uint64_t instrCount = 0;
};

using ProgramPtr = std::shared_ptr<const Program>;

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_PROGRAM_HH
