#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace soefair
{
namespace mem
{

Cache::Cache(const CacheConfig &config, MemLevel &next_level,
             EventQueue &event_queue, statistics::Group *stats_parent)
    : statsGroup(config.name, stats_parent),
      accesses(&statsGroup, "accesses", "total array lookups"),
      hits(&statsGroup, "hits", "lookups that hit"),
      misses(&statsGroup, "misses", "lookups that allocated an MSHR"),
      mshrMerges(&statsGroup, "mshrMerges",
                 "lookups merged into an in-flight MSHR"),
      mshrFullRetries(&statsGroup, "mshrFullRetries",
                      "lookups rejected for lack of an MSHR"),
      writebacks(&statsGroup, "writebacks", "dirty victims evicted"),
      fills(&statsGroup, "fills", "lines installed by miss fills"),
      prefetchFills(&statsGroup, "prefetchFills",
                    "lines installed by prefetches"),
      prefetchHits(&statsGroup, "prefetchHits",
                   "demand hits on prefetched lines"),
      cfg(config),
      next(next_level),
      events(event_queue),
      auditReg(config.name, [this]() { checkInvariants(); })
{
    soefair_assert(cfg.assoc > 0, "cache assoc must be positive");
    soefair_assert(cfg.sizeBytes % (lineBytes * cfg.assoc) == 0,
                   "cache size not divisible into sets: ", cfg.name);
    numSets = cfg.sizeBytes / (lineBytes * cfg.assoc);
    soefair_assert(numSets > 0, "cache has zero sets");
    setsPow2 = (numSets & (numSets - 1)) == 0;
    setMask = setsPow2 ? numSets - 1 : 0;
    lines.resize(numSets * cfg.assoc);
    tags.assign(numSets * cfg.assoc, invalidTag);
    mshrs.resize(std::max(1u, cfg.numMshrs));
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const Addr tag = lineAddr(addr);
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const Addr *set = &tags[base];
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (set[w] == tag)
            return &lines[base + w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

Cache::Mshr *
Cache::findMshr(Addr line)
{
    for (auto &m : mshrs) {
        if (m.valid && m.line == line)
            return &m;
    }
    return nullptr;
}

const Cache::Mshr *
Cache::findMshr(Addr line) const
{
    return const_cast<Cache *>(this)->findMshr(line);
}

Cache::Mshr *
Cache::allocMshr()
{
    for (auto &m : mshrs) {
        if (!m.valid)
            return &m;
    }
    return nullptr;
}

AccessResult
Cache::access(const MemReq &req)
{
    const Addr line = lineAddr(req.addr);

    if (req.writeback) {
        // Non-blocking victim traffic: update in place or install
        // without fetching.
        if (Line *l = findLine(line)) {
            l->dirty = true;
            l->lruStamp = ++lruCounter;
        } else {
            doFill(line, true);
        }
        return {req.when, false, true, false, false};
    }

    ++accesses;

    if (Line *l = findLine(line)) {
        ++hits;
        l->lruStamp = ++lruCounter;
        l->dirty = l->dirty || req.isWrite;
        if (l->prefetched && !req.prefetch) {
            ++prefetchHits;
            l->prefetched = false;
        }
        AccessResult r;
        r.completion = req.when + cfg.hitLatency;
        r.hit = true;
        return r;
    }

    if (Mshr *m = findMshr(line)) {
        ++mshrMerges;
        m->fillDirty = m->fillDirty || req.isWrite;
        if (!req.prefetch)
            m->fillPrefetched = false;
        AccessResult r;
        r.completion = std::max(m->completion,
                                req.when + Tick(cfg.hitLatency));
        r.memoryMiss = m->memoryMiss;
        r.mergedMshr = true;
        return r;
    }

    Mshr *m = allocMshr();
    if (!m) {
        ++mshrFullRetries;
        AccessResult r;
        r.retry = true;
        return r;
    }

    // Miss: fetch the line from the next level. The line fill is a
    // read regardless of whether the missing access is a write
    // (write-allocate).
    MemReq fetch;
    fetch.addr = line;
    fetch.isWrite = false;
    fetch.when = req.when + cfg.hitLatency;
    fetch.tid = req.tid;
    AccessResult down = next.access(fetch);
    if (down.retry) {
        ++mshrFullRetries;
        AccessResult r;
        r.retry = true;
        return r;
    }

    ++misses;
    // One MSHR per line: a duplicate would split the merge group and
    // double-count the miss (breaking the paper's one-switch-per-
    // clustered-miss behaviour).
    SOE_AUDIT(findMshr(line) == nullptr,
              "duplicate MSHR for line in ", cfg.name);
    m->valid = true;
    m->line = line;
    m->completion = down.completion;
    m->memoryMiss = down.memoryMiss;
    m->fillDirty = req.isWrite;
    m->fillPrefetched = req.prefetch;
    SOE_AUDIT(mshrsInUse() <= mshrs.size(),
              "MSHR occupancy above capacity in ", cfg.name);
    // Fills cannot arrive before the request was even made: the
    // miss-latency numbers feeding Eqs. 9/13 depend on this.
    SOE_AUDIT(down.completion >= req.when,
              "miss completion travels back in time in ", cfg.name);
    scheduleFill(*m);

    AccessResult r;
    r.completion = down.completion;
    r.memoryMiss = down.memoryMiss;
    return r;
}

void
Cache::scheduleFill(Mshr &m)
{
    const Addr line = m.line;
    events.schedule(m.completion, [this, line]() {
        Mshr *mm = findMshr(line);
        soefair_assert(mm, "fill event with no MSHR: ", cfg.name);
        doFill(line, mm->fillDirty, mm->fillPrefetched);
        mm->valid = false;
    });
}

void
Cache::doFill(Addr line, bool dirty, bool from_prefetch)
{
    if (Line *l = findLine(line)) {
        // Already (re)installed by writeback traffic.
        l->dirty = l->dirty || dirty;
        return;
    }
    ++fills;
    if (from_prefetch)
        ++prefetchFills;

    const std::size_t base = setIndex(line) * cfg.assoc;
    std::size_t v = base;
    for (std::size_t w = base; w < base + cfg.assoc; ++w) {
        if (tags[w] == invalidTag) {
            v = w;
            break;
        }
        if (lines[w].lruStamp < lines[v].lruStamp)
            v = w;
    }
    Line *victim = &lines[v];

    if (tags[v] != invalidTag && victim->dirty) {
        ++writebacks;
        MemReq wb;
        wb.addr = tags[v];
        wb.isWrite = true;
        wb.writeback = true;
        wb.when = 0; // victim traffic is not on the critical path
        next.access(wb);
    }

    tags[v] = line;
    victim->dirty = dirty;
    victim->prefetched = from_prefetch;
    victim->lruStamp = ++lruCounter;
}

bool
Cache::warmTouch(Addr addr, bool is_write)
{
    const Addr line = lineAddr(addr);
    if (Line *l = findLine(line)) {
        l->lruStamp = ++lruCounter;
        l->dirty = l->dirty || is_write;
        return true;
    }
    doFill(line, is_write);
    return false;
}

bool
Cache::mshrPendingFor(Addr addr) const
{
    return findMshr(lineAddr(addr)) != nullptr;
}

unsigned
Cache::mshrsInUse() const
{
    unsigned n = 0;
    for (const auto &m : mshrs)
        n += m.valid ? 1 : 0;
    return n;
}

void
Cache::checkInvariants() const
{
    for (std::size_t s = 0; s < numSets; ++s) {
        const Line *set = &lines[s * cfg.assoc];
        const Addr *setTags = &tags[s * cfg.assoc];
        for (unsigned i = 0; i < cfg.assoc; ++i) {
            if (setTags[i] == invalidTag)
                continue;
            soefair_assert(setIndex(setTags[i]) == s,
                           "line in wrong set: ", cfg.name);
            soefair_assert(set[i].lruStamp <= lruCounter,
                           "LRU stamp from the future: ", cfg.name);
            for (unsigned j = i + 1; j < cfg.assoc; ++j) {
                soefair_assert(setTags[j] != setTags[i],
                               "duplicate tag in set: ", cfg.name);
            }
        }
    }
    for (std::size_t i = 0; i < mshrs.size(); ++i) {
        if (!mshrs[i].valid)
            continue;
        for (std::size_t j = i + 1; j < mshrs.size(); ++j) {
            soefair_assert(!mshrs[j].valid ||
                           mshrs[j].line != mshrs[i].line,
                           "duplicate MSHR line: ", cfg.name);
        }
    }
}

} // namespace mem
} // namespace soefair
