/**
 * @file
 * Unit tests for the revocation bitmap and the sweep engine: paint /
 * clear / probe correctness including the bulk fast paths, mirror
 * consistency, traffic accounting, and page sweeps.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/rng.h"
#include "kern/kernel.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "revoker/bitmap.h"
#include "revoker/sweep.h"
#include "sim/scheduler.h"
#include "vm/address_space.h"
#include "vm/mmu.h"

namespace crev::revoker {
namespace {

struct BitmapHarness
{
    BitmapHarness()
        : ms(2, mem::CacheConfig{32 * 1024, 4},
             mem::CacheConfig{256 * 1024, 8}, mem::MemLatency{}),
          sched(2, sim::CostModel{}), as(pm),
          mmu(pm, ms, as, sched.costs()), bitmap(mmu)
    {
    }

    template <typename Fn>
    void
    onThread(Fn body)
    {
        sched.spawn("t", 1,
                    [body = std::move(body)](sim::SimThread &t) {
                        body(t);
                    });
        sched.run();
    }

    /** Whether the granule at @p va is tagged right now, read straight
     *  from the page table and physical memory (no cost). */
    bool
    tagAt(Addr va)
    {
        const vm::Pte *p = as.findPte(va);
        return p != nullptr && p->valid &&
               pm.tagAt((p->pfn << kPageBits) | pageOffset(va));
    }

    mem::PhysMem pm;
    mem::MemorySystem ms;
    sim::Scheduler sched;
    vm::AddressSpace as;
    vm::Mmu mmu;
    RevocationBitmap bitmap;
};

TEST(Bitmap, PaintProbeClearSingleGranule)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = 0x4000'0000;
        EXPECT_FALSE(h.bitmap.probe(t, base));
        h.bitmap.paint(t, base, 16);
        EXPECT_TRUE(h.bitmap.probe(t, base));
        EXPECT_FALSE(h.bitmap.probe(t, base + 16));
        EXPECT_FALSE(h.bitmap.probe(t, base - 16));
        h.bitmap.clear(t, base, 16);
        EXPECT_FALSE(h.bitmap.probe(t, base));
    });
}

TEST(Bitmap, ProbeUsesGranuleOfAddress)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = 0x4000'0100;
        h.bitmap.paint(t, base, 16);
        // Any address inside the granule probes true.
        EXPECT_TRUE(h.bitmap.probe(t, base + 7));
        EXPECT_TRUE(h.bitmap.probe(t, base + 15));
    });
}

TEST(Bitmap, LargeRangeUsesBulkPathConsistently)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        // An unaligned-start range spanning head/bulk/tail paths:
        // starts mid-byte (granule 3 of 8) and ends mid-byte.
        const Addr base = 0x4000'0000 + 3 * 16;
        const Addr len = 64 * 1024 + 5 * 16;
        h.bitmap.paint(t, base, len);
        for (Addr a = base; a < base + len; a += 16)
            ASSERT_TRUE(h.bitmap.probe(t, a)) << std::hex << a;
        EXPECT_FALSE(h.bitmap.probe(t, base - 16));
        EXPECT_FALSE(h.bitmap.probe(t, base + len));
        EXPECT_EQ(h.bitmap.paintedGranules(), len / 16);

        h.bitmap.clear(t, base, len);
        for (Addr a = base; a < base + len; a += 16)
            ASSERT_FALSE(h.bitmap.probe(t, a)) << std::hex << a;
        EXPECT_EQ(h.bitmap.paintedGranules(), 0u);
    });
}

TEST(Bitmap, AdjacentRangesDoNotInterfere)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        // Two allocations sharing a shadow byte (8 granules / byte).
        const Addr a = 0x4000'0000; // granules 0..3
        const Addr b = a + 64;      // granules 4..7
        h.bitmap.paint(t, a, 64);
        h.bitmap.paint(t, b, 64);
        h.bitmap.clear(t, a, 64);
        EXPECT_FALSE(h.bitmap.probe(t, a));
        EXPECT_TRUE(h.bitmap.probe(t, b)); // untouched by the clear
    });
}

TEST(Bitmap, PaintGeneratesSimulatedTraffic)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        const auto before = h.ms.counters(t.core()).accesses;
        h.bitmap.paint(t, 0x4000'0000, 1 << 20); // 1 MiB => 8 KiB shadow
        const auto writes = h.ms.counters(t.core()).accesses - before;
        // 8 KiB of shadow in <=64-byte chunks: at least 128 accesses.
        EXPECT_GE(writes, 128u);
    });
}

/**
 * Drive random paint/clear traffic and check the two-level summary
 * against a flat reference model: per-granule membership, total
 * count, and the summary's own internal invariants (L1 bits vs block
 * counts vs popcounts).
 */
void
randomPaintClearModelCheck(BitmapHarness &h, sim::SimThread &t,
                           std::uint64_t seed, bool torn)
{
    h.bitmap.setTornRmwForTest(torn);
    Rng rng(seed);
    std::set<Addr> model; // granule indices
    const Addr window = 0x4000'0000;
    const Addr window_len = 1 << 20; // 16 summary blocks
    for (int op = 0; op < 300; ++op) {
        const Addr base =
            window + Addr{rng.below(window_len / 16)} * 16;
        // Mostly short ranges (plenty of partial-byte RMW heads and
        // tails), occasionally a multi-block one.
        const Addr len = rng.chance(0.1)
                             ? Addr{1 + rng.below(8192)} * 16
                             : Addr{1 + rng.below(24)} * 16;
        const bool set = rng.chance(0.6);
        if (set)
            h.bitmap.paint(t, base, len);
        else
            h.bitmap.clear(t, base, len);
        for (Addr g = base >> 4; g < (base + len) >> 4; ++g) {
            if (set)
                model.insert(g);
            else
                model.erase(g);
        }
    }
    EXPECT_EQ(h.bitmap.paintedGranules(), model.size());
    for (int i = 0; i < 4096; ++i) {
        const Addr a = window + rng.below(window_len + 4 * kPageSize);
        ASSERT_EQ(h.bitmap.painted().test(a), model.count(a >> 4) != 0)
            << std::hex << a;
    }
    // Probes outside the heap hit the summary's O(1) out-of-range
    // reject, never simulated shadow memory.
    EXPECT_FALSE(h.bitmap.painted().test(0x1000));
    const auto violations = h.bitmap.painted().checkConsistent();
    for (const auto &v : violations)
        ADD_FAILURE() << v;
}

TEST(Bitmap, SummaryMatchesModelUnderRandomPaintClear)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        randomPaintClearModelCheck(h, t, 42, /*torn=*/false);
        // The charged probe cross-checks simulated bits against the
        // summary on every call; sample it over a painted block.
        h.bitmap.paint(t, 0x4000'0000, 64 * 16);
        for (Addr a = 0x4000'0000; a < 0x4000'0000 + 64 * 16; a += 16)
            ASSERT_TRUE(h.bitmap.probe(t, a)) << std::hex << a;
    });
}

TEST(Bitmap, SummaryConsistentThroughTornRmwWindows)
{
    // The torn-RMW test hook yields inside every partial-byte
    // read-modify-write. Single-threaded, the interleaving is benign,
    // but the summary updates inside those windows must still land at
    // the positions the race checker models — the model comparison
    // would catch a mirror drifting from the simulated bits.
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        randomPaintClearModelCheck(h, t, 1337, /*torn=*/true);
    });
}

TEST(SweepEngine, RevokesExactlyPaintedCaps)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr page = h.as.reserve(kPageSize);
        const cap::Capability victim =
            cap::Capability::root(0x5000'0000, 0x5000'0100);
        const cap::Capability keeper =
            cap::Capability::root(0x5000'1000, 0x5000'1100);
        h.mmu.storeCap(t, page, victim);
        h.mmu.storeCap(t, page + 16, keeper);
        h.bitmap.paint(t, victim.base, 0x100);

        SweepEngine sweep(h.mmu, h.bitmap);
        const bool clean = sweep.sweepPage(t, page);
        EXPECT_FALSE(clean);
        EXPECT_FALSE(h.tagAt(page));      // victim erased
        EXPECT_TRUE(h.tagAt(page + 16));  // keeper survives
        EXPECT_EQ(sweep.stats().caps_seen, 2u);
        EXPECT_EQ(sweep.stats().caps_revoked, 1u);
        EXPECT_EQ(sweep.stats().lines_read, kPageSize / kLineSize);
    });
}

TEST(SweepEngine, CleanPageReportsClean)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr page = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, page, 123); // data only
        SweepEngine sweep(h.mmu, h.bitmap);
        EXPECT_TRUE(sweep.sweepPage(t, page));
        EXPECT_EQ(sweep.stats().caps_seen, 0u);
    });
}

TEST(SweepEngine, ProbesDecodedBaseNotAddress)
{
    // A capability whose cursor is deep inside (or beyond) the object
    // still probes at its *base* (paper footnote 9).
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr page = h.as.reserve(kPageSize);
        const cap::Capability obj =
            cap::Capability::root(0x6000'0000, 0x6000'1000);
        const cap::Capability inner = obj.setAddress(0x6000'0ff0);
        h.mmu.storeCap(t, page, inner);
        h.bitmap.paint(t, obj.base, 16); // only the base granule
        SweepEngine sweep(h.mmu, h.bitmap);
        sweep.sweepPage(t, page);
        EXPECT_FALSE(h.tagAt(page));
    });
}

TEST(SweepEngine, RegisterScanHealsInPlace)
{
    BitmapHarness h;
    h.onThread([&](sim::SimThread &t) {
        t.reg(0) = cap::Capability::root(0x7000'0000, 0x7000'0100);
        t.reg(1) = cap::Capability::root(0x7000'1000, 0x7000'1100);
        h.bitmap.paint(t, 0x7000'0000, 0x100);
        SweepEngine sweep(h.mmu, h.bitmap);
        sweep.scanRegisters(t, t.registerFile());
        EXPECT_FALSE(t.reg(0).tag);
        EXPECT_TRUE(t.reg(1).tag);
        EXPECT_EQ(sweep.stats().regs_revoked, 1u);
        EXPECT_EQ(sweep.stats().regs_scanned,
                  sim::SimThread::kNumRegs);
    });
}

} // namespace
} // namespace crev::revoker
