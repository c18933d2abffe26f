/**
 * @file
 * Decoupled front end: fetch + decode + rename latency model.
 *
 * The front end pulls the correct dynamic path from the active
 * thread's InstStream, charges instruction-cache time per fetched
 * line and consults the branch predictor. Wrong paths are not
 * simulated; instead, when a fetched branch turns out to be one the
 * predictor could not follow, fetch stops (modelling wrong-path
 * fetch) until the branch resolves in the back end, then resumes
 * after a redirect delay. Fetched ops become dispatchable only
 * `frontDepth` cycles after their fetch, which models the pipeline
 * refill cost after redirects and thread switches.
 */

#ifndef SOEFAIR_CPU_FETCH_HH
#define SOEFAIR_CPU_FETCH_HH

#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/inst_ring.hh"
#include "mem/hierarchy.hh"
#include "sim/types.hh"
#include "stats/stats.hh"
#include "workload/inst_stream.hh"

namespace soefair
{
namespace cpu
{

struct FetchConfig
{
    unsigned width = 4;
    unsigned bufferEntries = 16;
    /** Fetch-to-dispatch pipeline depth in cycles. */
    unsigned frontDepth = 4;
    /** Extra cycles to restart fetch after a branch resolves. */
    unsigned redirectDelay = 2;
};

class FetchUnit
{
  public:
    FetchUnit(const FetchConfig &config, mem::Hierarchy &hierarchy,
              BranchPredictor &branch_predictor,
              statistics::Group *stats_parent);

    /** Register a thread's instruction stream (index = tid). */
    void addThread(workload::InstStream *stream);

    /** Begin fetching thread `tid`; first fetch at resume_tick. */
    void activate(ThreadID tid, Tick resume_tick);

    /**
     * Fetch up to `width` ops into the buffer.
     * @return true if the cycle made externally visible progress
     *         (fetched an op or touched the memory hierarchy); false
     *         for pure stall cycles whose only side effects are the
     *         per-cycle stall counters, which creditSkippedCycles()
     *         can reproduce in bulk.
     */
    bool tick(Tick now);

    /**
     * Earliest tick strictly after `now` at which a stalled front
     * end can act again (buffered op turning dispatchable, L1I fill
     * or redirect arriving), or maxTick. While stalled on an
     * unresolved branch the wake is the buffered-op tick only: the
     * resolution itself is produced by the issue stage, which is an
     * active (non-skippable) cycle.
     */
    Tick nextWakeTick(Tick now) const;

    /**
     * Account `skipped` fast-forwarded stall cycles following a
     * tick() that returned false at tick `now`: replays the same
     * stall-counter branch tick() took, in bulk.
     */
    void creditSkippedCycles(Tick now, std::uint64_t skipped);

    /** Oldest buffered op if it is dispatch-ready, else nullptr. */
    DynInst *dispatchable(Tick now);

    /** Remove the op returned by dispatchable() (after copying it). */
    void popDispatchable();

    /**
     * A branch has executed. If fetch was stalled on it, restart
     * after the redirect delay.
     */
    void branchResolved(InstSeqNum seq, Tick resolve_tick);

    /** Squash the buffer (thread switch). */
    void squashAll();

    ThreadID activeThread() const { return active; }
    bool stalledOnBranch() const { return stallBranchSeq != 0; }
    std::size_t buffered() const { return buffer.size(); }

    statistics::Group statsGroup;
    statistics::Counter fetched;
    statistics::Counter icacheStallCycles;
    statistics::Counter branchStallCycles;

  private:
    FetchConfig cfg;
    mem::Hierarchy &hier;
    BranchPredictor &bpred;

    std::vector<workload::InstStream *> streams;
    ThreadID active = invalidThreadId;
    Tick fetchReadyTick = 0;
    InstSeqNum stallBranchSeq = 0;
    Addr lastFetchLine = ~Addr(0);
    InstRing buffer;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_FETCH_HH
