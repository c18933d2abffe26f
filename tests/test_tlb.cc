/** @file Unit tests for the TLB and its page walker. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/tlb.hh"
#include "sim/random.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"

using namespace soefair;
using namespace soefair::mem;

namespace
{

class FixedLevel : public MemLevel
{
  public:
    AccessResult
    access(const MemReq &req) override
    {
        ++accesses;
        if (forceRetry) {
            AccessResult r;
            r.retry = true;
            return r;
        }
        AccessResult r;
        r.completion = req.when + 12;
        r.memoryMiss = missy;
        return r;
    }

    unsigned accesses = 0;
    bool missy = false;
    bool forceRetry = false;
};

struct Fixture
{
    Fixture(unsigned entries = 4)
        : root("t"), tlb(TlbConfig{"tlb", entries, 10}, walk, &root)
    {}

    statistics::Group root;
    FixedLevel walk;
    Tlb tlb;
};

} // namespace

TEST(Tlb, MissWalksThenHits)
{
    Fixture f;
    auto miss = f.tlb.lookup(0, 0x1234000, 5);
    EXPECT_TRUE(miss.walked);
    EXPECT_EQ(miss.completion, 5 + 12 + 10u);
    EXPECT_EQ(f.walk.accesses, 1u);

    auto hit = f.tlb.lookup(0, 0x1234ABC, 100); // same page
    EXPECT_FALSE(hit.walked);
    EXPECT_EQ(hit.completion, 100u);
    EXPECT_EQ(f.walk.accesses, 1u);
}

TEST(Tlb, DifferentPagesWalkSeparately)
{
    Fixture f;
    f.tlb.lookup(0, 0x1000, 0);
    f.tlb.lookup(0, 0x2000, 0);
    EXPECT_EQ(f.walk.accesses, 2u);
    EXPECT_EQ(f.tlb.walks.value(), 2u);
}

TEST(Tlb, LruEvictionOnCapacity)
{
    Fixture f(2);
    f.tlb.lookup(0, 0x1000, 0);
    f.tlb.lookup(0, 0x2000, 1);
    f.tlb.lookup(0, 0x1000, 2);      // refresh page 1
    f.tlb.lookup(0, 0x3000, 3);      // evicts page 2
    EXPECT_FALSE(f.tlb.lookup(0, 0x1000, 4).walked);
    EXPECT_TRUE(f.tlb.lookup(0, 0x2000, 5).walked);
}

TEST(Tlb, WalkMemoryMissIsReported)
{
    Fixture f;
    f.walk.missy = true;
    auto r = f.tlb.lookup(0, 0x9000, 0);
    EXPECT_TRUE(r.walked);
    EXPECT_TRUE(r.walkMemoryMiss);
    EXPECT_EQ(f.tlb.walkL2Misses.value(), 1u);
}

TEST(Tlb, WalkRetryDoesNotInstall)
{
    Fixture f;
    f.walk.forceRetry = true;
    auto r = f.tlb.lookup(0, 0x4000, 0);
    EXPECT_TRUE(r.walked);
    f.walk.forceRetry = false;
    // The entry was not installed, so the next lookup walks again.
    auto r2 = f.tlb.lookup(0, 0x4000, 100);
    EXPECT_TRUE(r2.walked);
}

TEST(Tlb, ThreadsHaveDistinctPages)
{
    Fixture f;
    // Thread slices make the VPNs globally unique already; lookups
    // from different slices never alias.
    const Addr t0 = (Addr(1) << 40) | 0x1000;
    const Addr t1 = (Addr(2) << 40) | 0x1000;
    f.tlb.lookup(0, t0, 0);
    EXPECT_TRUE(f.tlb.lookup(1, t1, 1).walked);
}

TEST(Tlb, FlushDropsEverything)
{
    Fixture f;
    f.tlb.lookup(0, 0x1000, 0);
    f.tlb.flush();
    EXPECT_TRUE(f.tlb.lookup(0, 0x1000, 1).walked);
}

TEST(Tlb, StatsCount)
{
    Fixture f;
    f.tlb.lookup(0, 0x1000, 0);
    f.tlb.lookup(0, 0x1000, 1);
    f.tlb.lookup(0, 0x2000, 2);
    EXPECT_EQ(f.tlb.lookups.value(), 3u);
    EXPECT_EQ(f.tlb.hits.value(), 1u);
    EXPECT_EQ(f.tlb.walks.value(), 2u);
}

namespace
{

/**
 * Walk level whose answers depend only on the request, so two TLBs
 * that issue the same walks see the same results: some walks miss
 * to memory, some are refused (retry).
 */
class ScriptedLevel : public MemLevel
{
  public:
    AccessResult
    access(const MemReq &req) override
    {
        ++accesses;
        AccessResult r;
        const std::uint64_t h = soefair::mix64(req.addr ^ req.when);
        if (h % 11 == 0) {
            r.retry = true;
            return r;
        }
        r.completion = req.when + 12 + h % 40;
        r.memoryMiss = h % 3 == 0;
        return r;
    }

    unsigned accesses = 0;
};

/**
 * Reference TLB without the direct-mapped hint: a linear scan for
 * hits; lookup's victim is the first invalid entry, else the LRU one;
 * warmInstall's is the invalid entry with the lowest stamp, else the
 * LRU one.
 */
class ScanTlb
{
  public:
    ScanTlb(unsigned n, unsigned walk_cycles, MemLevel &walk_level)
        : entries(n), walkCycles(walk_cycles), walkLevel(walk_level)
    {}

    TlbResult
    lookup(ThreadID tid, Addr addr, Tick when)
    {
        ++lookups;
        const Addr vpn = addr >> 12;
        Entry *victim = nullptr;
        for (auto &e : entries) {
            if (e.valid && e.vpn == vpn) {
                ++hits;
                e.lruStamp = ++lruCounter;
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
        walk.addr = ptAddr(tid, vpn);
        walk.when = when;
        walk.tid = tid;
        AccessResult res = walkLevel.access(walk);
        TlbResult out;
        out.walked = true;
        if (res.retry) {
            out.completion = when + walkCycles + 20;
            return out;
        }
        out.completion = res.completion + walkCycles;
        out.walkMemoryMiss = res.memoryMiss;
        if (out.walkMemoryMiss)
            ++walkL2Misses;
        victim->valid = true;
        victim->vpn = vpn;
        victim->lruStamp = ++lruCounter;
        return out;
    }

    Addr
    warmInstall(ThreadID tid, Addr addr)
    {
        const Addr vpn = addr >> 12;
        Entry *victim = nullptr;
        for (auto &e : entries) {
            if (e.valid && e.vpn == vpn) {
                e.lruStamp = ++lruCounter;
                return ptAddr(tid, vpn);
            }
            if (!victim || (!e.valid && victim->valid) ||
                (e.valid == victim->valid &&
                 e.lruStamp < victim->lruStamp)) {
                victim = &e;
            }
        }
        victim->valid = true;
        victim->vpn = vpn;
        victim->lruStamp = ++lruCounter;
        return ptAddr(tid, vpn);
    }

    void
    flush()
    {
        for (auto &e : entries)
            e.valid = false;
    }

    std::uint64_t lookups = 0, hits = 0, walks = 0, walkL2Misses = 0;

  private:
    struct Entry
    {
        bool valid = false;
        Addr vpn = 0;
        std::uint64_t lruStamp = 0;
    };

    static Addr
    ptAddr(ThreadID tid, Addr vpn)
    {
        const Addr base = (Addr(std::uint64_t(tid) + 1) << 40) +
                          0x7'0000'0000ull;
        return base + (vpn % (16ull * 1024 * 1024 / 8)) * 8;
    }

    std::vector<Entry> entries;
    std::uint64_t lruCounter = 0;
    unsigned walkCycles;
    MemLevel &walkLevel;
};

/**
 * Drive both TLBs with one random call stream and compare every
 * result and counter. This pins the victim rules as far as they are
 * observable: an invalid entry is filled before any valid one is
 * evicted, and the evicted valid entry is the least recently used.
 * Which of several invalid entries a fill takes is not observable
 * (entries are fully associative and stamps are unique).
 */
void
compareWithScan(unsigned n_entries, std::uint64_t seed)
{
    statistics::Group root("t");
    ScriptedLevel level, refLevel;
    Tlb tlb(TlbConfig{"tlb", n_entries, 10}, level, &root);
    ScanTlb ref(n_entries, 10, refLevel);

    soefair::Rng rng(seed);
    // Three times as many pages as entries, a quarter of them hot,
    // so hits, capacity misses and both victim rules all occur.
    const std::uint64_t pages = 3 * std::uint64_t(n_entries) + 1;
    Tick now = 0;
    for (int i = 0; i < 200 * 1000; ++i) {
        now += 1 + rng.below(3);
        const ThreadID tid = ThreadID(rng.below(2));
        const std::uint64_t page = rng.chance(0.6)
            ? rng.below(pages / 4 + 1) : rng.below(pages);
        const Addr addr = (Addr(std::uint64_t(tid) + 1) << 40) +
                          page * 4096 + rng.below(4096);
        const std::uint64_t what = rng.below(1000);
        if (what < 2) {
            tlb.flush();
            ref.flush();
        } else if (what < 300) {
            ASSERT_EQ(tlb.warmInstall(tid, addr),
                      ref.warmInstall(tid, addr)) << "call " << i;
        } else {
            const TlbResult a = tlb.lookup(tid, addr, now);
            const TlbResult b = ref.lookup(tid, addr, now);
            ASSERT_EQ(a.walked, b.walked) << "call " << i;
            ASSERT_EQ(a.completion, b.completion) << "call " << i;
            ASSERT_EQ(a.walkMemoryMiss, b.walkMemoryMiss) << "call " << i;
        }
        ASSERT_EQ(tlb.hits.value(), ref.hits) << "call " << i;
        ASSERT_EQ(tlb.walks.value(), ref.walks) << "call " << i;
    }
    EXPECT_EQ(tlb.lookups.value(), ref.lookups);
    EXPECT_EQ(tlb.walkL2Misses.value(), ref.walkL2Misses);
    EXPECT_EQ(level.accesses, refLevel.accesses);
    EXPECT_GT(ref.hits, 0u);
    EXPECT_GT(ref.walks, ref.walkL2Misses);
}

} // namespace

TEST(Tlb, MatchesLinearScanReference)
{
    // The default size, a non-power-of-two size and the degenerate
    // single entry.
    compareWithScan(64, 1);
    compareWithScan(12, 2);
    compareWithScan(1, 3);
}
