/**
 * @file
 * The out-of-order core (P6-derived, paper Section 4.1) with SOE
 * multithreading hooks.
 *
 * One thread is active at a time. The core runs a cycle-stepped
 * pipeline — fetch, dispatch (rename + allocate), issue/execute,
 * retire — over the active thread's instruction stream. Thread
 * switches are driven by a SwitchController (the SOE engine): the
 * core reports switch events (an unresolved L2 miss at the ROB head,
 * each retirement, every cycle) and the controller answers with
 * switch decisions; the core then performs the drain-and-restart
 * mechanics.
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

/** Why a thread switch happened (statistics / engine bookkeeping). */
enum class SwitchReason
{
    MissEvent, ///< unresolved L2 miss at the ROB head (base SOE)
    Forced,    ///< fairness deficit quota reached zero
    Quota,     ///< maximum-cycles residency quota expired
    Pause      ///< explicit pause/yield instruction (Section 6 fn. 7)
};

/**
 * The SOE engine as seen by the core. All methods are called from
 * inside Core::tick().
 */
class SwitchController
{
  public:
    virtual ~SwitchController() = default;

    /**
     * The ROB head (seq) is blocked on an unresolved cache miss:
     * is_l2_miss distinguishes the paper's last-level switch event
     * from an L1 miss (Section 6's extended event). Called every
     * cycle while blocked; implementations deduplicate by seq for
     * miss counting. @return the thread to switch to, or
     * invalidThreadId (or the current tid) to keep waiting.
     */
    virtual ThreadID onHeadStall(ThreadID tid, InstSeqNum seq,
                                 Tick now, Tick stall_resolve,
                                 bool is_l2_miss) = 0;

    /**
     * An instruction of `tid` retired. @return true if the fairness
     * quota forces a switch-out after this instruction.
     */
    virtual bool onRetire(ThreadID tid, Tick now) = 0;

    /**
     * Called once per cycle with the active thread; drives periodic
     * (delta) recalculation and the max-cycles residency quota.
     * @return true to force a switch now.
     */
    virtual bool onCycle(ThreadID tid, Tick now) = 0;

    /**
     * A pause (yield hint) instruction retired. @return true to
     * switch the thread out (Section 6's explicit switch trigger).
     */
    virtual bool onPause(ThreadID tid, Tick now) = 0;

    /** Pick the thread for a forced (non-miss) switch. */
    virtual ThreadID pickNextForced(ThreadID tid, Tick now) = 0;

    /** Residency bookkeeping. */
    virtual void onSwitchOut(ThreadID tid, Tick now,
                             SwitchReason reason) = 0;
    virtual void onSwitchIn(ThreadID tid, Tick now) = 0;

    /**
     * Earliest tick strictly after `now` at which the controller may
     * act on its own (sample boundary, cycle-quota expiry, a blocked
     * thread turning ready). The fast-forward engine never skips
     * past this tick, so onCycle() is guaranteed to run at it. The
     * default keeps controllers cycle-exact by pinning the wake to
     * the very next tick — i.e. fast-forward is disabled unless a
     * controller opts in by overriding this.
     */
    virtual Tick
    nextWakeTick(ThreadID tid, Tick now) const
    {
        (void)tid;
        return now + 1;
    }
};

class Core
{
  public:
    Core(const CoreConfig &config, mem::Hierarchy &hierarchy,
         statistics::Group *stats_parent);

    /** Register a thread (tids are assigned 0, 1, ... in order). */
    void addThread(workload::InstStream *stream);

    /** Install the SOE engine (nullptr = single-thread mode). */
    void setController(SwitchController *controller);

    /** Begin execution with thread `first` active. */
    void start(ThreadID first, Tick now);

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
     * store-buffer drains and the controller's own schedule. Only
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
    void startSwitch(ThreadID next, Tick now, SwitchReason reason);
    void completeLoadIssue(DynInst *inst, Tick now);

    CoreConfig cfg;
    mem::Hierarchy &hier;
    SwitchController *controller = nullptr;

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
