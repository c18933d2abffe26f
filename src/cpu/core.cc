#include "cpu/core.hh"

#include "sim/logging.hh"
#include "sim/ticked.hh"
#include "soe/engine.hh"

namespace soefair
{
namespace cpu
{

Core::Core(const CoreConfig &config, mem::Hierarchy &hierarchy,
           statistics::Group *stats_parent)
    : statsGroup("core", stats_parent),
      retiredOps(&statsGroup, "retiredOps", "micro-ops retired"),
      switchesMiss(&statsGroup, "switchesMiss",
                   "thread switches on L2-miss events"),
      switchesForced(&statsGroup, "switchesForced",
                     "thread switches forced by the fairness quota"),
      switchesQuota(&statsGroup, "switchesQuota",
                    "thread switches forced by the max-cycles quota"),
      switchesPause(&statsGroup, "switchesPause",
                    "thread switches on pause/yield instructions"),
      squashedOps(&statsGroup, "squashedOps",
                  "in-flight ops squashed by thread switches"),
      headMissStallCycles(&statsGroup, "headMissStallCycles",
                          "cycles the ROB head was blocked on an L2 "
                          "miss with no switch taken"),
      cfg(config),
      hier(hierarchy),
      bpred(config.bpred, &statsGroup),
      fetch(config.fetch, hierarchy, bpred, &statsGroup),
      rob(config.robEntries),
      iq(config.iqEntries, rob),
      lq(config.lqEntries),
      sq(config.sqEntries),
      storeBuf(config.sbEntries, hierarchy, &statsGroup),
      fus(config.fus)
{
    // A thread's unretired ops (ROB, fetch buffer and the op fetch
    // peeks at) must all fit in its stream's replay window.
    soefair_assert(std::size_t(config.robEntries) +
                           config.fetch.bufferEntries + 1 <=
                       workload::InstStream::capacity,
                   "ROB + fetch buffer exceed the instruction stream's ",
                   workload::InstStream::capacity, "-op replay window");
}

void
Core::addThread(workload::InstStream *stream)
{
    soefair_assert(stream, "addThread(nullptr)");
    streams.push_back(stream);
    retiredCount.push_back(0);
    fetch.addThread(stream);
}

void
Core::start(soe::SoeEngine &soe_engine, ThreadID first, Tick now)
{
    soefair_assert(first >= 0 && std::size_t(first) < streams.size(),
                   "start with unknown thread");
    engine = &soe_engine;
    activeTid = first;
    fetch.activate(first, now);
    engine->onSwitchIn(first, now);
}

std::uint64_t
Core::retired(ThreadID tid) const
{
    soefair_assert(tid >= 0 && std::size_t(tid) < retiredCount.size(),
                   "retired() for unknown thread");
    return retiredCount[std::size_t(tid)];
}

bool
Core::tick(Tick now)
{
    soefair_assert(activeTid != invalidThreadId, "tick before start");

    bool progress = tickComponent(storeBuf, now);
    progress = retireStage(now) || progress;

    if (engine->onCycle(activeTid, now) &&
        switchToNextReady(activeTid, now, SwitchReason::Quota)) {
        progress = true;
    }

    progress = issueStage(now) || progress;
    progress = dispatchStage(now) || progress;
    progress = tickComponent(fetch, now) || progress;
    return progress;
}

Tick
Core::nextWakeTick(Tick now) const
{
    Tick wake = std::min(rob.nextCompletionTick(now),
                         fus.nextFreeTick(now));
    wake = std::min(wake, fetch.nextWakeTick(now));
    wake = std::min(wake, storeBuf.nextWakeTick(now));
    return std::min(wake, engine->nextWakeTick(activeTid, now));
}

void
Core::creditSkippedCycles(Tick now, std::uint64_t skipped)
{
    // Mirror of retireStage()'s per-cycle head-stall accounting: a
    // quiescent tick leaves the blocked head in place, so every
    // skipped tick would have taken the same branch. onHeadStall()
    // needs no replay — repeat calls for the same head seqNum are
    // deduplicated no-ops, and its first sighting already happened
    // during the (ticked) detection cycle.
    if (!rob.empty()) {
        const DynInst &h = rob.head();
        if (!h.completedBy(now) && h.issued && h.l2Miss)
            headMissStallCycles += skipped;
    }
    fetch.creditSkippedCycles(now, skipped);
}

bool
Core::retireStage(Tick now)
{
    bool progress = false;
    unsigned n = 0;
    while (n < cfg.retireWidth && !rob.empty()) {
        DynInst &h = rob.head();
        if (!h.completedBy(now)) {
            // The head is blocked. An unresolved last-level miss is
            // the paper's switch event; an L1 miss is the extended
            // event of Section 6 (the engine decides whether it
            // switches).
            if (h.issued && (h.l2Miss || h.l1Miss)) {
                if (h.l2Miss)
                    ++headMissStallCycles;
                ThreadID next = engine->onHeadStall(
                    activeTid, h.op.seqNum, now, h.completionTick,
                    h.l2Miss);
                if (next != invalidThreadId) {
                    startSwitch(next, now, SwitchReason::MissEvent);
                    return true;
                }
            }
            break;
        }

        if (h.op.isStore()) {
            if (storeBuf.full())
                break; // backpressure: retry next cycle
            storeBuf.push(h.tid, h.op.memAddr, now);
            sq.retireHead(&h);
        }
        if (h.op.isLoad())
            lq.remove();

        if (retireHook)
            retireHook(h, now);

        rename.retire(&h);
        streams[std::size_t(h.tid)]->commitUpTo(h.op.seqNum);
        ++retiredCount[std::size_t(h.tid)];
        ++retiredOps;

        const ThreadID tid = h.tid;
        const bool isPause = h.op.op == isa::OpClass::Pause;
        rob.popHead();
        ++n;
        progress = true;

        if (isPause && engine->config().switchOnPause &&
            switchToNextReady(tid, now, SwitchReason::Pause)) {
            return true;
        }
        if (engine->onRetire(tid, now) &&
            switchToNextReady(tid, now, SwitchReason::Forced)) {
            return true;
        }
    }
    return progress;
}

void
Core::completeLoadIssue(DynInst *inst, Tick now)
{
    // Forwarded loads complete with a one-cycle bypass.
    inst->completionTick = now + 1;
    inst->l2Miss = false;
    inst->l1Miss = false;
}

bool
Core::issueStage(Tick now)
{
    unsigned issuedCnt = 0;
    bool progress = false;
    iq.select(now, [&](DynInst *e) {
        if (issuedCnt >= cfg.issueWidth)
            return false;
        if (tryIssue(e, now, progress))
            ++issuedCnt;
        return true;
    });
    return progress || issuedCnt > 0;
}

bool
Core::tryIssue(DynInst *e, Tick now, bool &progress)
{
    if (!fus.canIssue(e->op.op, now))
        return false;

    if (e->op.isLoad()) {
        auto sqm = sq.search(e->op.memAddr, e->op.seqNum, now);
        if (sqm == StoreQueue::Match::Block)
            return false; // older store's data not ready yet
        if (sqm == StoreQueue::Match::Forward) {
            completeLoadIssue(e, now);
        } else {
            auto sbm = storeBuf.probe(e->op.memAddr, e->tid);
            if (sbm == StoreBuffer::Match::OtherThread)
                return false; // no cross-thread forwarding: wait
            if (sbm == StoreBuffer::Match::SameThread) {
                completeLoadIssue(e, now);
            } else {
                // The lookup mutates cache state/stats even when
                // refused: either way this cycle is not skippable.
                progress = true;
                auto res = hier.load(e->tid, e->op.memAddr, now);
                if (res.retry)
                    return false; // L1D MSHRs full
                e->completionTick = res.completion;
                e->l2Miss = res.l2Miss;
                e->l1Miss = res.l1Miss;
            }
        }
    } else if (e->op.isStore()) {
        // AGU pass: address+data staged into the SQ entry; the cache
        // write happens post-retirement from the store buffer.
        e->completionTick = now + 1;
    } else {
        e->completionTick = now + isa::opLatency(e->op.op);
    }

    fus.occupy(e->op.op, now);
    e->issued = true;
    iq.issue(e, now);

    if (e->op.isBranch()) {
        bpred.update(e->op, e->pred);
        if (e->mispredicted)
            fetch.branchResolved(e->op.seqNum, e->completionTick);
    }
    return true;
}

bool
Core::dispatchStage(Tick now)
{
    bool progress = false;
    for (unsigned n = 0; n < cfg.dispatchWidth; ++n) {
        DynInst *f = fetch.dispatchable(now);
        if (!f)
            break;
        if (rob.full() || iq.full())
            break;
        if (f->op.isLoad() && lq.full())
            break;
        if (f->op.isStore() && sq.full())
            break;

        DynInst &r = rob.push(std::move(*f));
        fetch.popDispatchable();

        iq.insert(&r, rename.producer(r.op.src0),
                  rename.producer(r.op.src1), now);
        rename.setProducer(&r);
        if (r.op.isLoad())
            lq.add();
        if (r.op.isStore())
            sq.push(&r);
        progress = true;
    }
    return progress;
}

bool
Core::switchToNextReady(ThreadID tid, Tick now, SwitchReason reason)
{
    const ThreadID next = engine->nextReady(tid, now);
    if (next == invalidThreadId)
        return false;
    startSwitch(next, now, reason);
    return true;
}

void
Core::startSwitch(ThreadID next, Tick now, SwitchReason reason)
{
    soefair_assert(next != activeTid, "switch to the active thread");

    switch (reason) {
      case SwitchReason::MissEvent: ++switchesMiss; break;
      case SwitchReason::Forced: ++switchesForced; break;
      case SwitchReason::Quota: ++switchesQuota; break;
      case SwitchReason::Pause: ++switchesPause; break;
    }

    engine->onSwitchOut(activeTid, now);

    squashedOps += rob.size() + fetch.buffered();

    // Drain: every in-flight op of the outgoing thread is squashed
    // and will be refetched identically when the thread resumes.
    // In-flight cache misses keep filling (prefetch effect, paper
    // footnote 5); the store buffer is NOT flushed.
    streams[std::size_t(activeTid)]->squashAfter(invalidSeqNum);
    iq.squashAll();
    rob.squashAll();
    sq.squashAll();
    lq.squashAll();
    fus.reset();
    rename.clear();

    const Tick resume = now + cfg.drainCycles + cfg.switchRestartDelay;
    fetch.activate(next, resume);
    activeTid = next;
    engine->onSwitchIn(next, now + cfg.drainCycles);
}

void
Core::checkInvariants(Tick now) const
{
    // ROB is in program order with contiguous seqNums and everything
    // belongs to the active thread.
    InstSeqNum prev = 0;
    for (const DynInst &e : rob) {
        soefair_assert(e.tid == activeTid,
                       "ROB holds a non-active thread's op");
        soefair_assert(prev == 0 || e.op.seqNum == prev + 1,
                       "ROB seqNums not contiguous");
        prev = e.op.seqNum;
        if (e.issued) {
            soefair_assert(e.completionTick != maxTick,
                           "issued op without completion tick");
        }
        // Wakeup links: src names exactly the unissued producers,
        // and each such link sits on that producer's waiter list.
        unsigned linked = 0;
        for (unsigned i = 0; i < 2; ++i) {
            const DynInst *s = e.src[i];
            if (!s)
                continue;
            ++linked;
            soefair_assert(s->inRob,
                           "source pointer to non-ROB producer");
            soefair_assert(!s->issued,
                           "source pointer to an issued producer");
            soefair_assert(s->op.seqNum < e.op.seqNum,
                           "source younger than consumer");
            bool onList = false;
            for (WaiterLink w = s->waiters; w && !onList;
                 w = w.inst()->nextWaiter[w.srcIdx()]) {
                onList = w.inst() == &e && w.srcIdx() == i;
            }
            soefair_assert(onList, "source link missing from the "
                           "producer's waiter list");
        }
        soefair_assert(e.pending == linked,
                       "pending count does not match source links");
        if (e.issued)
            soefair_assert(!e.waiters, "issued op still has waiters");
        for (WaiterLink w = e.waiters; w;
             w = w.inst()->nextWaiter[w.srcIdx()]) {
            const DynInst *c = w.inst();
            soefair_assert(c->inRob && c->src[w.srcIdx()] == &e,
                           "waiter link does not point back");
        }
        soefair_assert(e.inIq != e.issued,
                       "a dispatched op must be in the IQ until it issues");
    }
    (void)now;
}

} // namespace cpu
} // namespace soefair
