/**
 * @file
 * The out-of-order core (P6-derived, paper Section 4.1) with SOE
 * multithreading hooks.
 *
 * One thread is active at a time. The core runs a cycle-stepped
 * pipeline — fetch, dispatch (rename + allocate), issue/execute,
 * retire — over the active thread's instruction stream. Thread
 * switches are decided by the SOE engine: the core reports switch
 * events to it (an unresolved miss at the ROB head, each retirement,
 * every cycle), and when the engine answers with a switch the core
 * performs the drain-and-restart mechanics.
 */

#ifndef SOEFAIR_CPU_CORE_HH
#define SOEFAIR_CPU_CORE_HH

#include <functional>
#include <memory>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/fetch.hh"
#include "cpu/fu_pool.hh"
#include "cpu/issue_queue.hh"
#include "cpu/lsq.hh"
#include "cpu/rename.hh"
#include "cpu/rob.hh"
#include "cpu/store_buffer.hh"
#include "mem/hierarchy.hh"
#include "sim/types.hh"
#include "stats/stats.hh"
#include "workload/inst_stream.hh"

namespace soefair
{
namespace soe
{
class SoeEngine;
} // namespace soe

namespace cpu
{

struct CoreConfig
{
    FetchConfig fetch;
    BranchPredictorConfig bpred;
    FuPoolConfig fus;
    unsigned robEntries = 96;
    unsigned iqEntries = 48;
    unsigned lqEntries = 32;
    unsigned sqEntries = 24;
    unsigned sbEntries = 12;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 6;
    unsigned retireWidth = 4;
    /** Pipeline drain cost of a thread switch (Section 4.1). */
    unsigned drainCycles = 6;
    /** Additional front-end restart delay after the drain. */
    unsigned switchRestartDelay = 8;
};

/** Why a thread switch happened (selects the switch counter). */
enum class SwitchReason
{
    MissEvent, ///< unresolved L2 miss at the ROB head (base SOE)
    Forced,    ///< fairness deficit quota reached zero
    Quota,     ///< maximum-cycles residency quota expired
    Pause      ///< explicit pause/yield instruction (Section 6 fn. 7)
};

class Core
{
  public:
    Core(const CoreConfig &config, mem::Hierarchy &hierarchy,
         statistics::Group *stats_parent);

    /** Register a thread (tids are assigned 0, 1, ... in order). */
    void addThread(workload::InstStream *stream);

    /**
     * Begin execution with thread `first` active, switching threads
     * as `engine` decides. The engine must outlive every later tick().
     */
    void start(soe::SoeEngine &engine, ThreadID first, Tick now);

    /**
     * Advance one cycle.
     * @return true if the cycle made externally visible progress
     *         (retire/issue/dispatch/fetch, a store-buffer drain or
     *         drain attempt, a hierarchy access, a thread switch).
     *         A false return certifies the machine is quiescent: no
     *         state other than the per-cycle stall counters (which
     *         creditSkippedCycles() reproduces) changes until the
     *         tick reported by nextWakeTick().
     */
    bool tick(Tick now);

    /**
     * Earliest tick strictly after `now` at which a quiescent core
     * can next change state: the minimum over pending instruction
     * completions, functional-unit frees, front-end restarts,
     * store-buffer drains and the engine's own horizon. Only
     * meaningful right after a tick() that returned false.
     */
    Tick nextWakeTick(Tick now) const;

    /**
     * Bulk-account `skipped` fast-forwarded cycles following a
     * quiescent tick at `now`: replays the per-cycle stall counters
     * (ROB-head miss stall, fetch stalls) the skipped ticks would
     * have incremented one by one.
     */
    void creditSkippedCycles(Tick now, std::uint64_t skipped);

    ThreadID activeThread() const { return activeTid; }
    std::uint64_t retired(ThreadID tid) const;
    unsigned numThreads() const { return unsigned(streams.size()); }

    const CoreConfig &config() const { return cfg; }

    BranchPredictor &branchPredictor() { return bpred; }
    StoreBuffer &storeBuffer() { return storeBuf; }

    /** In-flight ops, oldest first (tests inspect the pipeline). */
    const Rob &robEntries() const { return rob; }

    /** Structural sanity checks (tests call this between cycles). */
    void checkInvariants(Tick now) const;

    /**
     * Observer invoked for every retiring micro-op (tests and
     * trace tooling; not used by the simulation itself).
     */
    using RetireHook = std::function<void(const DynInst &, Tick)>;
    void setRetireHook(RetireHook hook) { retireHook = std::move(hook); }

    // --- statistics ---
    statistics::Group statsGroup;
    statistics::Counter retiredOps;
    statistics::Counter switchesMiss;
    statistics::Counter switchesForced;
    statistics::Counter switchesQuota;
    statistics::Counter switchesPause;
    statistics::Counter squashedOps;
    statistics::Counter headMissStallCycles;

  private:
    bool retireStage(Tick now);
    bool issueStage(Tick now);
    /**
     * Issue one ready op if a unit is free and memory ordering
     * allows. Sets `progress` when it touched the hierarchy.
     * @return true if the op issued.
     */
    bool tryIssue(DynInst *e, Tick now, bool &progress);
    bool dispatchStage(Tick now);
    /**
     * The engine asked for a non-miss switch away from `tid`: switch
     * to the next ready thread, if there is one.
     * @return true if a switch started.
     */
    bool switchToNextReady(ThreadID tid, Tick now, SwitchReason reason);
    void startSwitch(ThreadID next, Tick now, SwitchReason reason);
    void completeLoadIssue(DynInst *inst, Tick now);

    CoreConfig cfg;
    mem::Hierarchy &hier;
    soe::SoeEngine *engine = nullptr;

    BranchPredictor bpred;
    FetchUnit fetch;
    Rob rob;
    IssueQueue iq;
    LoadQueue lq;
    StoreQueue sq;
    StoreBuffer storeBuf;
    FuPool fus;
    RenameTable rename;

    std::vector<workload::InstStream *> streams;
    std::vector<std::uint64_t> retiredCount;
    ThreadID activeTid = invalidThreadId;
    RetireHook retireHook;
};

} // namespace cpu
} // namespace soefair

#endif // SOEFAIR_CPU_CORE_HH
