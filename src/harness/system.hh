/**
 * @file
 * System builder: wires workloads, memory hierarchy, core and the
 * SOE engine into a runnable simulated machine.
 */

#ifndef SOEFAIR_HARNESS_SYSTEM_HH
#define SOEFAIR_HARNESS_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "harness/machine_config.hh"
#include "mem/hierarchy.hh"
#include "sim/event_queue.hh"
#include "soe/engine.hh"
#include "stats/stats.hh"
#include "workload/generator.hh"
#include "workload/inst_stream.hh"
#include "workload/profile.hh"

namespace soefair
{
namespace harness
{

/** One hardware thread's workload. */
struct ThreadSpec
{
    workload::Profile profile;
    std::uint64_t seed = 1;

    static ThreadSpec
    benchmark(const std::string &name, std::uint64_t seed_)
    {
        ThreadSpec s;
        s.profile = workload::spec::byName(name);
        s.seed = seed_;
        return s;
    }
};

class System
{
  public:
    System(const MachineConfig &config,
           const std::vector<ThreadSpec> &specs);

    cpu::Core &core() { return *coreInst; }
    mem::Hierarchy &hierarchy() { return *hier; }
    EventQueue &events() { return eventQueue; }
    /**
     * The thread's workload generator, read-only: only the producer
     * of the thread's InstStream, started by the first warmCaches()
     * or start(), ever drives it. Its profile, thread id and
     * generated() count are safe to read at any time.
     */
    const workload::WorkloadGenerator &generator(ThreadID tid) const;
    statistics::Group &stats() { return root; }

    unsigned numThreads() const { return unsigned(generators.size()); }
    Tick now() const { return currentTick; }

    /**
     * Attach every thread's InstStream to the core, starting the
     * streams unless warmCaches() already did, and begin with thread
     * 0, switching threads as `engine` decides. Panics on a null
     * engine before starting any producer. The engine must outlive
     * every later step().
     */
    void start(soe::SoeEngine *engine);

    /**
     * Advance exactly n cycles. With fast-forward enabled (the
     * default), runs of provably quiescent cycles — every pipeline
     * stage stalled, nothing due on the event queue — are jumped in
     * one step instead of ticked one by one, with the per-cycle
     * stall counters credited in bulk. The determinism contract:
     * every statistic and every observable tick (events, samples,
     * switches, retirements) is byte-identical with fast-forward on
     * and off; see docs/performance.md.
     */
    void step(std::uint64_t n);

    /** Toggle stall fast-forwarding (on by default). */
    void setFastForward(bool on) { fastForward = on; }
    bool fastForwardEnabled() const { return fastForward; }

    /** Number of quiescent stretches jumped. */
    std::uint64_t fastForwardJumps() const { return ffJumps; }
    /** Cycles elided by those jumps (still counted in now()). */
    std::uint64_t fastForwardCycles() const { return ffCycles; }

    /**
     * Functional cache warmup: stream `instrs_per_thread` upcoming
     * instructions of every thread through the caches, TLBs and
     * branch predictor (round-robin in chunks so threads' lines
     * interleave), fetching and retiring them from each thread's
     * InstStream. The first call starts the streams, so their
     * producers generate the warmup ops ahead of it; from then on
     * this System holds live producer threads and must not be
     * forked (see InstStream::liveProducers). No cycles pass.
     */
    void warmCaches(std::uint64_t instrs_per_thread);

    /** Dump the full stat tree. */
    void dumpStats(std::ostream &os) const { root.dump(os); }

  private:
    statistics::Group root;
    MachineConfig cfg;
    EventQueue eventQueue;
    std::unique_ptr<mem::Hierarchy> hier;
    std::unique_ptr<cpu::Core> coreInst;
    std::vector<std::unique_ptr<workload::WorkloadGenerator>> generators;
    /** Built by the first warmCaches() or start(); declared after
     *  `generators` so each stream stops its producer before its
     *  generator is destroyed. */
    std::vector<std::unique_ptr<workload::InstStream>> streams;
    Tick currentTick = 0;
    bool started = false;
    /**
     * Deliberately not part of MachineConfig: fast-forward changes
     * wall-clock speed only, never results, so it must not perturb
     * config fingerprints (sweep journals, eval caches).
     */
    bool fastForward = true;
    std::uint64_t ffJumps = 0;
    std::uint64_t ffCycles = 0;

    /** Build each thread's InstStream, starting its producer, once. */
    void startStreams();
};

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SYSTEM_HH
