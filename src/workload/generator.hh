/**
 * @file
 * The dynamic workload generator.
 *
 * A WorkloadGenerator walks a static Program and emits the thread's
 * correct dynamic MicroOp stream: branch outcomes follow each static
 * branch's bias, non-branch slots sample their op class, operand
 * dependencies and data addresses from the active Phase. The stream
 * is a pure function of (profile, thread id, seed): it does not
 * depend on timing, so a thread executes the identical instruction
 * sequence whether it runs alone or under SOE — the property the
 * paper's single-thread-IPC estimation relies on.
 */

#ifndef SOEFAIR_WORKLOAD_GENERATOR_HH
#define SOEFAIR_WORKLOAD_GENERATOR_HH

#include <atomic>
#include <cstdint>
#include <memory>

#include "isa/micro_op.hh"
#include "sim/random.hh"
#include "sim/types.hh"
#include "workload/address_stream.hh"
#include "workload/profile.hh"
#include "workload/program.hh"

namespace soefair
{
namespace workload
{

/** The generator's position in its program and phase schedule. */
struct GeneratorState
{
    InstSeqNum nextSeqNum = 1;
    std::uint64_t dynCount = 0;
    std::uint32_t curBlock = 0;
    std::uint32_t slotIdx = 0;
    std::uint32_t phaseIdx = 0;
    std::uint64_t instrsInPhase = 0;
    std::uint64_t chaseDepth = 0;
};

class WorkloadGenerator
{
  public:
    /**
     * @param profile Benchmark description.
     * @param thread_id Address-space slice selector.
     * @param seed Master seed; all internal streams derive from it.
     */
    WorkloadGenerator(const Profile &profile, ThreadID thread_id,
                      std::uint64_t seed);

    /** Produce the next micro-op in program order. */
    isa::MicroOp
    next()
    {
        isa::MicroOp op;
        nextInto(op);
        return op;
    }

    /** next(), built in place in `op` (spares the caller a copy). */
    void nextInto(isa::MicroOp &op);

    /** Total micro-ops generated so far; any thread may read it. */
    std::uint64_t
    generated() const
    {
        return generatedCount.load(std::memory_order_relaxed);
    }

    const Profile &profile() const { return prof; }
    const Program &program() const { return *prog; }
    ThreadID threadId() const { return tid; }
    std::uint64_t seed() const { return masterSeed; }

    /** Active phase index (tests/calibration peek at this). */
    std::uint32_t phaseIndex() const { return state.phaseIdx; }

  private:
    void enterPhase(std::uint32_t idx);
    void maybeAdvancePhase();
    isa::RegId sampleDep();
    isa::RegId ringReg(std::uint64_t dyn_index) const;

    /** Dependency ring size; regs [0, ringSize) cycle as dests. */
    static constexpr int ringSize = 48;
    /** Register dedicated to the pointer-chase dependency chain. */
    static constexpr isa::RegId chaseReg = 63;
    /** Dependency distance cap (must stay below ringSize). */
    static constexpr std::uint64_t maxDepDist = 40;

    Profile prof;
    ThreadID tid;
    std::uint64_t masterSeed;
    ProgramPtr prog;
    Rng rng;
    AddressStream addrs;
    DiscreteSampler classSampler;
    /** Rng::threshold of the active phase's depNone and depGeoP. */
    std::uint64_t depNoneBound = 0;
    std::uint64_t depGeoBound = 0;
    /** Active phase's duration (0 = unbounded). */
    std::uint64_t phaseDuration = 0;
    GeneratorState state;
    /** state.dynCount, published for readers on other threads. */
    std::atomic<std::uint64_t> generatedCount{0};
};

/** Code-slice base address for a thread (1 TiB apart, above data). */
Addr threadCodeBase(ThreadID tid);

} // namespace workload
} // namespace soefair

#endif // SOEFAIR_WORKLOAD_GENERATOR_HH
