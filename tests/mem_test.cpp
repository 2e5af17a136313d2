/**
 * @file
 * Unit tests for tagged physical memory, the cache model, and the
 * bus-traffic-counting memory system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/rng.h"
#include "cap/compression.h"
#include "mem/cache.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"

namespace crev::mem {
namespace {

TEST(PhysMem, AllocZeroedAndReuse)
{
    PhysMem pm;
    const Addr a = pm.allocFrame();
    pm.frame(a).bytes[0] = 0xAB;
    pm.frame(a).setTag(0, true);
    pm.freeFrame(a);
    const Addr b = pm.allocFrame();
    EXPECT_EQ(a, b); // free list recycles
    EXPECT_EQ(pm.frame(b).bytes[0], 0);
    EXPECT_FALSE(pm.frame(b).testTag(0)); // zeroed on reuse
}

TEST(PhysMem, LineNibblesTrackTags)
{
    PhysMem pm;
    const Addr pfn = pm.allocFrame();
    Frame &f = pm.frame(pfn);
    EXPECT_FALSE(f.anyTags());

    // Granules 0 and 3 share line 0; granule 7 lives in line 1 and
    // granule 255 in the frame's last line, in the last tag word.
    f.setTag(0, true);
    f.setTag(3, true);
    f.setTag(7, true);
    f.setTag(255, true);
    EXPECT_TRUE(f.anyTags());
    EXPECT_EQ(f.lineNibble(0), 0b1001u);
    EXPECT_EQ(f.lineNibble(1), 0b1000u);
    EXPECT_EQ(f.lineNibble(2), 0u);
    EXPECT_EQ(f.lineNibble(63), 0b1000u);

    // Clearing one granule of a two-tag line keeps the other's bit.
    f.clearTag(0);
    EXPECT_EQ(f.lineNibble(0), 0b1000u);
    f.setTag(3, false);
    EXPECT_EQ(f.lineNibble(0), 0u);
    f.clearTag(7);
    EXPECT_TRUE(f.anyTags()); // granule 255 is still tagged
    f.clearTag(255);
    EXPECT_FALSE(f.anyTags());
}

TEST(PhysMem, StoreCapSetsLineNibble)
{
    PhysMem pm;
    const Addr pfn = pm.allocFrame();
    const Addr base = pfn << kPageBits;
    const cap::Capability c = cap::Capability::root(0x1000, 0x2000);
    // Second granule of the second cache line.
    pm.storeCap(base + kLineSize + kGranuleSize, cap::encode(c), true);
    EXPECT_TRUE(pm.frameHasTags(pfn));
    EXPECT_EQ(pm.frame(pfn).lineNibble(0), 0u);
    EXPECT_EQ(pm.frame(pfn).lineNibble(1), 0b0010u);
    // A data store anywhere in the granule clears the line's tag.
    const std::uint8_t byte = 0;
    pm.write(base + kLineSize + kGranuleSize + 7, &byte, 1);
    EXPECT_EQ(pm.frame(pfn).lineNibble(1), 0u);
    EXPECT_FALSE(pm.frameHasTags(pfn));
}

TEST(PhysMem, PeakTracksHighWater)
{
    PhysMem pm;
    const Addr a = pm.allocFrame();
    const Addr b = pm.allocFrame();
    pm.freeFrame(a);
    pm.freeFrame(b);
    pm.allocFrame();
    EXPECT_EQ(pm.peakFrames(), 2u);
    EXPECT_EQ(pm.framesInUse(), 1u);
}

TEST(PhysMem, DataWriteClearsOverlappedTags)
{
    PhysMem pm;
    const Addr pfn = pm.allocFrame();
    const Addr base = pfn << kPageBits;

    cap::Capability c = cap::Capability::root(0x1000, 0x2000);
    pm.storeCap(base + 16, cap::encode(c), true);
    EXPECT_TRUE(pm.tagAt(base + 16));

    // A one-byte data store anywhere in the granule clears its tag.
    const std::uint8_t byte = 0xFF;
    pm.write(base + 20, &byte, 1);
    EXPECT_FALSE(pm.tagAt(base + 16));
}

TEST(PhysMem, DataWriteClearsExactlyTheOverlappedGranules)
{
    struct Case
    {
        std::size_t off;
        std::size_t len;
    };
    const Case cases[] = {
        {0x235, 1},                 // one byte inside granule 0x23
        {0x105, 0x2A},              // unaligned start and end: 0x10-0x12
        {0x100, 0x20},              // aligned end: 0x10-0x11, not 0x12
        {63 * kGranuleSize + 8, 16}, // granules 63 and 64, two tag words
        {64 * kGranuleSize - 1, 2},  // the last byte of 63, first of 64
        {0xFF0, 0x10},              // the frame's last granule only
        {0, kPageSize},             // the whole frame
    };
    PhysMem pm;
    const Addr pfn = pm.allocFrame();
    const Addr base = pfn << kPageBits;
    std::vector<std::uint8_t> data(kPageSize, 0x5A);
    for (const Case &k : cases) {
        Frame &f = pm.frame(pfn);
        for (std::size_t g = 0; g < kGranulesPerPage; ++g)
            f.setTag(g, true);
        pm.write(base + k.off, data.data(), k.len);
        const std::size_t first = k.off / kGranuleSize;
        const std::size_t last = (k.off + k.len - 1) / kGranuleSize;
        for (std::size_t g = 0; g < kGranulesPerPage; ++g)
            EXPECT_EQ(f.testTag(g), g < first || g > last)
                << "write at " << k.off << " of " << k.len
                << ", granule " << g;
    }
}

TEST(PhysMem, CapRoundTrip)
{
    PhysMem pm;
    const Addr pfn = pm.allocFrame();
    const Addr base = pfn << kPageBits;
    const cap::Capability c =
        cap::Capability::root(0x4000'0000, 0x4000'0100);
    pm.storeCap(base, cap::encode(c), c.tag);
    cap::CapBits bits;
    const bool tag = pm.loadCap(base, bits);
    EXPECT_TRUE(tag);
    const cap::Capability d = cap::decode(bits, tag);
    EXPECT_EQ(d.base, c.base);
    EXPECT_EQ(d.top, c.top);
}

TEST(Cache, HitAfterMiss)
{
    Cache c(CacheConfig{1024, 2});
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    auto read = [&](Addr addr) {
        const bool hit = c.access(addr, false).hit;
        ++(hit ? hits : misses);
        return hit;
    };
    EXPECT_FALSE(read(0x1000));
    EXPECT_TRUE(read(0x1000));
    EXPECT_TRUE(read(0x1020)); // same 64B line
    EXPECT_EQ(hits, 2u);
    EXPECT_EQ(misses, 1u);
}

TEST(Cache, LruEvictionAndDirtyWriteback)
{
    // 2-way, 8 sets of 64B lines => 1 KiB; lines 0x0000, 0x2000,
    // 0x4000 map to the same set (stride = sets * 64 = 512).
    Cache c(CacheConfig{1024, 2});
    c.access(0x0000, true);  // dirty
    c.access(0x0200, false); // same set, way 2
    const CacheResult r = c.access(0x0400, false); // evicts 0x0000
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.evicted_dirty);
    EXPECT_EQ(r.victim_line, 0x0000u);
    EXPECT_FALSE(c.contains(0x0000));
    EXPECT_TRUE(c.contains(0x0200));
}

TEST(Cache, InvalidateLineDropsWithoutWriteback)
{
    Cache c(CacheConfig{1024, 2});
    c.access(0x1000, true);
    c.invalidateLine(0x1000);
    EXPECT_FALSE(c.contains(0x1000));
    const CacheResult r = c.access(0x1000, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted_dirty);
}

TEST(Cache, InvalidateFrameDropsOnlyThatFrame)
{
    // 2-way, 8 sets of 64B lines: frame 5's lines sit in sets 1 and
    // 3, frame 6's in set 2, and page 0's 0x0000/0x0200/0x0400 in
    // set 0.
    Cache c(CacheConfig{1024, 2});
    const Addr f5 = 5 << kPageBits;
    const Addr f6 = 6 << kPageBits;
    c.access(f5 + 64, true);
    c.access(f5 + 192, false);
    c.access(f6 + 128, false);
    EXPECT_TRUE(c.contains(f5 + 64));
    EXPECT_TRUE(c.contains(f5 + 192));

    // Eviction drops the set's LRU line.
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0400, false); // evicts 0x0000
    EXPECT_FALSE(c.contains(0x0000));
    EXPECT_TRUE(c.contains(0x0200));
    EXPECT_TRUE(c.contains(0x0400));

    c.invalidateFrame(5);
    EXPECT_FALSE(c.contains(f5 + 64));
    EXPECT_FALSE(c.contains(f5 + 192));
    EXPECT_TRUE(c.contains(f6 + 128));
    EXPECT_TRUE(c.contains(0x0200));
    // Invalidating a frame with no resident line changes nothing.
    c.invalidateFrame(7);
    EXPECT_TRUE(c.contains(f6 + 128));
    EXPECT_TRUE(c.contains(0x0400));
    // The dropped dirty line was not written back and now misses.
    const CacheResult r = c.access(f5 + 64, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.evicted_dirty);
}

/**
 * Reference model for the differential test: each set is a list of
 * resident lines, most recently used first. A miss fills the front and
 * evicts from the back once the set holds `assoc` lines.
 */
class LruModel
{
  public:
    LruModel(std::size_t size_bytes, unsigned assoc)
        : assoc_(assoc), sets_(size_bytes / (kLineSize * assoc))
    {
    }

    CacheResult
    access(Addr addr, bool write)
    {
        const Addr line = addr >> kLineBits;
        std::vector<Entry> &set = sets_[line % sets_.size()];
        CacheResult res;
        auto it = std::find_if(set.begin(), set.end(), [&](const Entry &e) {
            return e.line == line;
        });
        if (it != set.end()) {
            Entry e = *it;
            e.dirty |= write;
            set.erase(it);
            set.insert(set.begin(), e);
            res.hit = true;
            ++hits;
            return res;
        }
        ++misses;
        if (set.size() == assoc_) {
            if (set.back().dirty) {
                res.evicted_dirty = true;
                res.victim_line = set.back().line << kLineBits;
            }
            set.pop_back();
        }
        set.insert(set.begin(), Entry{line, write});
        return res;
    }

    void
    invalidateLine(Addr addr)
    {
        const Addr line = addr >> kLineBits;
        std::erase_if(sets_[line % sets_.size()],
                      [&](const Entry &e) { return e.line == line; });
    }

    void
    invalidateFrame(Addr pfn)
    {
        for (auto &set : sets_)
            std::erase_if(set, [&](const Entry &e) {
                return (e.line >> (kPageBits - kLineBits)) == pfn;
            });
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    struct Entry
    {
        Addr line;
        bool dirty;
    };

    std::size_t assoc_;
    std::vector<std::vector<Entry>> sets_;
};

/** First pfn of a frame range whose line addresses are wider than 32
 *  bits, so a victim's line address is rebuilt from a wide tag plus its
 *  set index. */
constexpr Addr kHighPfn = (Addr{1} << 27) + 3;

void
checkAgainstLruModel(const CacheConfig &cfg, std::uint64_t seed,
                     Addr first_pfn = 3)
{
    Cache c(cfg);
    LruModel model(cfg.size_bytes, cfg.assoc);
    Rng rng(seed);
    // Eight frames: enough lines to force conflicts in every set, few
    // enough that re-accesses and invalidations find resident lines.
    constexpr Addr kFrames = 8;
    std::vector<Addr> recent(16, first_pfn << kPageBits);
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (int i = 0; i < 120'000; ++i) {
        const std::uint64_t op = rng.below(100);
        if (op < 2) {
            const Addr pfn = first_pfn + rng.below(kFrames);
            c.invalidateFrame(pfn);
            model.invalidateFrame(pfn);
            continue;
        }
        if (op < 5) {
            // Single-line invalidations, mostly of resident lines.
            const Addr addr = recent[rng.below(recent.size())];
            c.invalidateLine(addr);
            model.invalidateLine(addr);
            ASSERT_FALSE(c.contains(addr)) << "op " << i;
            continue;
        }
        // Half the accesses revisit a recent address (hits, including
        // repeated hits on one way); the rest pick any line.
        Addr addr;
        if (op < 50) {
            addr = recent[rng.below(recent.size())];
        } else {
            addr = ((first_pfn + rng.below(kFrames)) << kPageBits) +
                   rng.below(kPageSize);
            recent[rng.below(recent.size())] = addr;
        }
        const bool write = rng.below(3) == 0;
        const CacheResult got = c.access(addr, write);
        const CacheResult want = model.access(addr, write);
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.evicted_dirty, want.evicted_dirty) << "op " << i;
        ASSERT_EQ(got.victim_line, want.victim_line) << "op " << i;
        ASSERT_TRUE(c.contains(addr)) << "op " << i;
        ++(got.hit ? hits : misses);
    }
    EXPECT_EQ(hits, model.hits);
    EXPECT_EQ(misses, model.misses);
    EXPECT_GT(model.hits, 0u);
    EXPECT_GT(model.misses, 0u);
}

TEST(Cache, TwoWayMatchesLruReferenceModel)
{
    checkAgainstLruModel(CacheConfig{1024, 2}, 17);
}

TEST(Cache, FourWayMatchesLruReferenceModel)
{
    checkAgainstLruModel(CacheConfig{4096, 4}, 29);
}

TEST(Cache, EightWayMatchesLruReferenceModel)
{
    // The LLC's associativity; 32 sets hold half of the eight frames.
    checkAgainstLruModel(CacheConfig{16384, 8}, 41);
}

TEST(Cache, HighFramesMatchLruReferenceModel)
{
    checkAgainstLruModel(CacheConfig{4096, 4}, 53, kHighPfn);
    checkAgainstLruModel(CacheConfig{16384, 8}, 67, kHighPfn);
}

TEST(MemorySystem, LatenciesByLevel)
{
    MemLatency lat;
    MemorySystem ms(2, CacheConfig{1024, 2}, CacheConfig{4096, 4}, lat);
    // Cold: L1 miss + LLC miss => full DRAM latency.
    EXPECT_EQ(ms.access(0, 0x1000, 8, false),
              lat.l1_hit + lat.llc_hit + lat.dram);
    // Warm L1.
    EXPECT_EQ(ms.access(0, 0x1000, 8, false), lat.l1_hit);
    // Other core: misses its own L1, hits shared LLC.
    EXPECT_EQ(ms.access(1, 0x1000, 8, false),
              lat.l1_hit + lat.llc_hit);
}

TEST(MemorySystem, BusTransactionsCountedPerCore)
{
    MemLatency lat;
    MemorySystem ms(2, CacheConfig{1024, 2}, CacheConfig{4096, 4}, lat);
    ms.access(0, 0x1000, 8, false);
    ms.access(1, 0x9000, 8, false);
    ms.access(1, 0x9000, 8, false); // hit: no new traffic
    EXPECT_EQ(ms.counters(0).bus_reads, 1u);
    EXPECT_EQ(ms.counters(1).bus_reads, 1u);
    EXPECT_EQ(ms.totalCounters().busTransactions(), 2u);
}

TEST(MemorySystem, MultiLineAccessTouchesEachLine)
{
    MemLatency lat;
    MemorySystem ms(1, CacheConfig{1024, 2}, CacheConfig{4096, 4}, lat);
    // 128 bytes starting at a line boundary: two lines.
    ms.access(0, 0x1000, 128, false);
    EXPECT_EQ(ms.counters(0).accesses, 2u);
    // Crossing a boundary with a small access also touches two lines.
    ms.access(0, 0x203C, 8, false);
    EXPECT_EQ(ms.counters(0).accesses, 4u);
}

TEST(MemorySystem, InvalidateFramePurgesAllLevels)
{
    MemLatency lat;
    MemorySystem ms(1, CacheConfig{1024, 2}, CacheConfig{4096, 4}, lat);
    ms.access(0, 5 << kPageBits, 8, true);
    ms.invalidateFrame(5);
    // Re-access goes all the way to DRAM again.
    EXPECT_EQ(ms.access(0, 5 << kPageBits, 8, false),
              lat.l1_hit + lat.llc_hit + lat.dram);
}

TEST(MemorySystem, InvalidateFrameLeavesNeighbourFrameCached)
{
    MemLatency lat;
    MemorySystem ms(2, CacheConfig{4096, 4}, CacheConfig{65536, 8}, lat);
    const Addr p = 5 << kPageBits;
    const Addr q = 6 << kPageBits; // the neighbouring frame
    ms.access(0, p, 8, true);
    ms.access(0, q, 8, true);
    ms.access(1, p + kLineSize, 8, true);
    ms.access(1, q + kLineSize, 8, false);
    const MemCounters before = ms.totalCounters();

    ms.invalidateFrame(5);
    // Each core's own lines of the neighbour still hit its L1, and the
    // other core's line of it still hits the shared LLC.
    EXPECT_EQ(ms.access(0, q, 8, false), lat.l1_hit);
    EXPECT_EQ(ms.access(1, q + kLineSize, 8, false), lat.l1_hit);
    EXPECT_EQ(ms.access(1, q, 8, false), lat.l1_hit + lat.llc_hit);
    // The invalidated frame's lines are gone from every level, from
    // either core.
    EXPECT_EQ(ms.access(0, p, 8, false),
              lat.l1_hit + lat.llc_hit + lat.dram);
    EXPECT_EQ(ms.access(1, p + kLineSize, 8, false),
              lat.l1_hit + lat.llc_hit + lat.dram);
    // Dropping dirty lines writes nothing back.
    EXPECT_EQ(ms.totalCounters().bus_writes, before.bus_writes);
    EXPECT_EQ(ms.totalCounters().bus_reads, before.bus_reads + 2);
}

/**
 * Reference for the memory-system differential test: per-core L1
 * LruModels in front of a shared LLC LruModel. A line that misses its
 * L1 first writes the L1's dirty victim into the LLC, then fills from
 * the LLC, and from DRAM if that misses too.
 */
class TwoLevelModel
{
  public:
    TwoLevelModel(unsigned num_cores, const CacheConfig &l1,
                  const CacheConfig &llc, const MemLatency &lat)
        : counters(num_cores), llc_(llc.size_bytes, llc.assoc), lat_(lat)
    {
        for (unsigned c = 0; c < num_cores; ++c)
            l1_.emplace_back(l1.size_bytes, l1.assoc);
    }

    Cycles
    access(unsigned core, Addr paddr, std::size_t len, bool write)
    {
        Cycles total = 0;
        for (Addr line = paddr >> kLineBits;
             line <= (paddr + len - 1) >> kLineBits; ++line)
            total += accessLine(core, line << kLineBits, write);
        return total;
    }

    void
    invalidateFrame(Addr pfn)
    {
        for (auto &l1 : l1_)
            l1.invalidateFrame(pfn);
        llc_.invalidateFrame(pfn);
    }

    std::vector<MemCounters> counters;
    std::uint64_t llc_hits = 0;
    std::uint64_t l1_writebacks = 0;

  private:
    Cycles
    accessLine(unsigned core, Addr addr, bool write)
    {
        MemCounters &ctr = counters[core];
        ++ctr.accesses;
        const CacheResult l1r = l1_[core].access(addr, write);
        if (l1r.hit)
            return lat_.l1_hit;
        ++ctr.l1_misses;
        if (l1r.evicted_dirty) {
            ++l1_writebacks;
            const CacheResult wb = llc_.access(l1r.victim_line, true);
            ctr.bus_reads += !wb.hit;
            ctr.bus_writes += wb.evicted_dirty;
        }
        const CacheResult r = llc_.access(addr, false);
        if (r.hit) {
            ++llc_hits;
            return lat_.l1_hit + lat_.llc_hit;
        }
        ++ctr.bus_reads;
        ctr.bus_writes += r.evicted_dirty;
        return lat_.l1_hit + lat_.llc_hit + lat_.dram;
    }

    std::vector<LruModel> l1_;
    LruModel llc_;
    MemLatency lat_;
};

/**
 * Drive a four-core MemorySystem and the two-level reference with the
 * same stream: 1-256-byte accesses (some crossing lines), about a third
 * of them writes, whole-page line-by-line reads like a sweep's, and
 * frame invalidations, over frames at low pfns and above kHighPfn. The
 * heap is 1.5x the LLC, so every level hits, misses and evicts dirty
 * lines.
 */
void
checkAgainstTwoLevelModel(const CacheConfig &l1, const CacheConfig &llc,
                          std::uint64_t seed)
{
    constexpr unsigned kCores = 4;
    const MemLatency lat{3, 11, 97};
    MemorySystem ms(kCores, l1, llc, lat);
    TwoLevelModel model(kCores, l1, llc, lat);
    Rng rng(seed);

    const Addr half = std::max<Addr>(4, llc.size_bytes * 3 / 4 / kPageSize);
    auto pickPfn = [&] {
        const Addr i = rng.below(2 * half);
        return i < half ? 3 + i : kHighPfn + (i - half);
    };
    std::vector<Addr> recent(32, 3 << kPageBits);
    for (int i = 0; i < 60'000; ++i) {
        const std::uint64_t op = rng.below(200);
        if (op < 2) {
            const Addr pfn = pickPfn();
            ms.invalidateFrame(pfn);
            model.invalidateFrame(pfn);
            continue;
        }
        const unsigned core = static_cast<unsigned>(rng.below(kCores));
        if (op < 4) {
            const Addr base = pickPfn() << kPageBits;
            for (Addr off = 0; off < kPageSize; off += kLineSize)
                ASSERT_EQ(ms.access(core, base + off, kLineSize, false),
                          model.access(core, base + off, kLineSize, false))
                    << "op " << i << " sweep line " << off / kLineSize;
            continue;
        }
        Addr addr;
        if (op < 100) {
            addr = recent[rng.below(recent.size())] + rng.below(64);
        } else {
            addr = (pickPfn() << kPageBits) + rng.below(kPageSize);
            recent[rng.below(recent.size())] = addr;
        }
        const std::size_t len = 1 + rng.below(256);
        const bool write = rng.below(3) == 0;
        ASSERT_EQ(ms.access(core, addr, len, write),
                  model.access(core, addr, len, write))
            << "op " << i << " core " << core << " addr 0x" << std::hex
            << addr << std::dec << " len " << len << " write " << write;
    }

    std::uint64_t bus_writes = 0;
    for (unsigned c = 0; c < kCores; ++c) {
        const MemCounters &got = ms.counters(c);
        const MemCounters &want = model.counters[c];
        EXPECT_EQ(got.accesses, want.accesses) << "core " << c;
        EXPECT_EQ(got.l1_misses, want.l1_misses) << "core " << c;
        EXPECT_EQ(got.bus_reads, want.bus_reads) << "core " << c;
        EXPECT_EQ(got.bus_writes, want.bus_writes) << "core " << c;
        EXPECT_GT(want.l1_misses, 0u) << "core " << c;
        EXPECT_LT(want.l1_misses, want.accesses) << "core " << c;
        bus_writes += want.bus_writes;
    }
    EXPECT_GT(model.llc_hits, 0u);
    EXPECT_GT(model.l1_writebacks, 0u);
    EXPECT_GT(bus_writes, 0u);
}

TEST(MemorySystem, MatchesTwoLevelLruModel)
{
    // The default machine's geometry.
    checkAgainstTwoLevelModel(CacheConfig{32 * 1024, 4},
                              CacheConfig{1024 * 1024, 8}, 71);
    // pgbench's smaller caches.
    checkAgainstTwoLevelModel(CacheConfig{16 * 1024, 4},
                              CacheConfig{128 * 1024, 8}, 83);
    // The unit-test geometry above: 2-way L1, 4-way LLC.
    checkAgainstTwoLevelModel(CacheConfig{1024, 2}, CacheConfig{4096, 4},
                              97);
}

} // namespace
} // namespace crev::mem
