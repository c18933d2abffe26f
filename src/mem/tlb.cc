#include "mem/tlb.hh"

#include "sim/logging.hh"

namespace soefair
{
namespace mem
{

Tlb::Tlb(const TlbConfig &config, MemLevel &walk_level,
         statistics::Group *stats_parent)
    : statsGroup(config.name, stats_parent),
      lookups(&statsGroup, "lookups", "translation lookups"),
      hits(&statsGroup, "hits", "lookups that hit"),
      walks(&statsGroup, "walks", "page walks performed"),
      walkL2Misses(&statsGroup, "walkL2Misses",
                   "page walks whose reference missed the L2"),
      cfg(config),
      walkLevel(walk_level)
{
    soefair_assert(cfg.entries > 0, "TLB needs at least one entry");
    entries.resize(cfg.entries);
    std::size_t slots = 1;
    while (slots < 4 * std::size_t(cfg.entries))
        slots *= 2;
    hint.assign(slots, 0);
}

Tlb::Entry *
Tlb::hinted(Addr vpn)
{
    Entry &e = entries[hint[vpn & (hint.size() - 1)]];
    return e.valid && e.vpn == vpn ? &e : nullptr;
}

void
Tlb::remember(const Entry &e)
{
    hint[e.vpn & (hint.size() - 1)] = std::uint32_t(&e - entries.data());
}

Addr
Tlb::pageTableAddr(ThreadID tid, Addr vpn) const
{
    // A 16 MiB page-table region near the top of the thread's data
    // slice, laid out linearly by vpn like a real leaf page table:
    // eight 8-byte entries share a cache line, so walks for adjacent
    // pages hit the L2 the way radix walks do.
    constexpr Addr ptOffset = 0x7'0000'0000ull;
    constexpr Addr ptBytes = 16ull * 1024 * 1024;
    const Addr base = (Addr(std::uint64_t(tid) + 1) << 40) + ptOffset;
    return base + (vpn % (ptBytes / 8)) * 8;
}

TlbResult
Tlb::lookup(ThreadID tid, Addr addr, Tick when)
{
    ++lookups;
    // Thread slices are disjoint, so the vpn (which includes the
    // slice bits) is globally unique: no tid tag needed.
    const Addr vpn = addr >> pageShift;

    if (Entry *e = hinted(vpn)) {
        ++hits;
        e->lruStamp = ++lruCounter;
        return {when, false, false};
    }

    Entry *victim = nullptr;
    for (auto &e : entries) {
        if (e.valid && e.vpn == vpn) {
            ++hits;
            e.lruStamp = ++lruCounter;
            remember(e);
            return {when, false, false};
        }
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
        } else if (!victim ||
                   (victim->valid && e.lruStamp < victim->lruStamp)) {
            victim = &e;
        }
    }

    ++walks;
    MemReq walk;
    walk.addr = pageTableAddr(tid, vpn);
    walk.when = when;
    walk.tid = tid;
    AccessResult res = walkLevel.access(walk);

    TlbResult out;
    out.walked = true;
    if (res.retry) {
        // The walker could not get an L2 MSHR; charge a stall and
        // leave the entry uninstalled so the retry walks again.
        out.completion = when + cfg.walkCycles + 20;
        return out;
    }

    out.completion = res.completion + cfg.walkCycles;
    out.walkMemoryMiss = res.memoryMiss;
    if (out.walkMemoryMiss)
        ++walkL2Misses;

    soefair_assert(victim, "no TLB victim");
    victim->valid = true;
    victim->vpn = vpn;
    victim->lruStamp = ++lruCounter;
    remember(*victim);
    return out;
}

Addr
Tlb::warmInstall(ThreadID tid, Addr addr)
{
    const Addr vpn = addr >> pageShift;
    if (Entry *e = hinted(vpn)) {
        e->lruStamp = ++lruCounter;
        return pageTableAddr(tid, vpn);
    }
    Entry *victim = nullptr;
    for (auto &e : entries) {
        if (e.valid && e.vpn == vpn) {
            e.lruStamp = ++lruCounter;
            remember(e);
            return pageTableAddr(tid, vpn);
        }
        if (!victim || (!e.valid && victim->valid) ||
            (e.valid == victim->valid &&
             e.lruStamp < victim->lruStamp)) {
            victim = &e;
        }
    }
    soefair_assert(victim, "no TLB victim");
    victim->valid = true;
    victim->vpn = vpn;
    victim->lruStamp = ++lruCounter;
    remember(*victim);
    return pageTableAddr(tid, vpn);
}

void
Tlb::flush()
{
    for (auto &e : entries)
        e.valid = false;
}

} // namespace mem
} // namespace soefair
