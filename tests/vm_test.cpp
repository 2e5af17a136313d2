/**
 * @file
 * Tests for the VM layer: reservations with representability padding
 * and guard pages, demand paging, TLB behaviour, capability-dirty
 * store tracking, and the load-barrier trap plumbing.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cap/compression.h"
#include "kern/kernel.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "revoker/bitmap.h"
#include "revoker/paint_only.h"
#include "sim/scheduler.h"
#include "vm/address_space.h"
#include "vm/fault.h"
#include "vm/mmu.h"

namespace crev::vm {
namespace {

/** A harness bundling the VM stack under a one-thread scheduler. */
struct VmHarness
{
    VmHarness()
        : ms(2, mem::CacheConfig{32 * 1024, 4},
             mem::CacheConfig{256 * 1024, 8}, mem::MemLatency{}),
          sched(2, sim::CostModel{}), as(pm), mmu(pm, ms, as,
                                                  sched.costs())
    {
    }

    /** Run @p body on a simulated thread pinned to core 0. */
    template <typename Fn>
    void
    onThread(Fn body)
    {
        sched.spawn("t", 1, [body = std::move(body)](sim::SimThread &t) {
            body(t);
        });
        sched.run();
    }

    /** Flip the load generations inside a stopped world, as the
     *  Reloaded revoker's stop-the-world phase does. */
    void
    flipGens(sim::SimThread &t)
    {
        sim::StoppedWorld world(t);
        mmu.flipAllCoreGens(t, world);
    }

    /** Whether the granule at @p va is tagged right now, read straight
     *  from the page table and physical memory (no cost). */
    bool
    tagAt(Addr va)
    {
        const Pte *p = as.findPte(va);
        return p != nullptr && p->valid &&
               pm.tagAt((p->pfn << kPageBits) | pageOffset(va));
    }

    mem::PhysMem pm;
    mem::MemorySystem ms;
    sim::Scheduler sched;
    AddressSpace as;
    Mmu mmu;
    /** Mappings are torn down only through the kernel, the one holder
     *  of a MappingKey. */
    kern::Kernel kernel{mmu, sched.costs()};
};

/**
 * The harness plus a paint-only revoker daemon on core 1, so a
 * quarantined reservation can be released at the end of an epoch,
 * and a record of the reservations the kernel quarantines (it paints
 * each one once, as it takes it).
 */
struct EpochHarness : VmHarness
{
    EpochHarness()
    {
        kernel.setShadowHooks(
            [this](sim::SimThread &, Addr base, Addr) {
                quarantined.push_back(base);
            },
            [](sim::SimThread &, Addr, Addr) {});
        sched.spawn(
            "revoker", 1u << 1,
            [this](sim::SimThread &self) { revoker.daemonBody(self); },
            /*daemon=*/true);
    }

    /** Run one revocation epoch to completion: it releases every
     *  reservation quarantined before the call. */
    void
    reap(sim::SimThread &t)
    {
        revoker.requestEpoch(t);
        revoker.waitForEpochCounter(
            t, kernel.epoch().dequarantineTarget(kernel.epoch().value()));
    }

    revoker::RevocationBitmap bitmap{mmu};
    revoker::PaintOnlyRevoker revoker{sched, mmu, kernel, bitmap,
                                      revoker::PagePolicy{}};
    /** Base of each reservation taken into mapping quarantine. */
    std::vector<Addr> quarantined;
};

TEST(AddressSpace, ReservePadsToRepresentability)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    // 5 MiB needs E > 0: the reservation is longer than requested and
    // the base suitably aligned.
    const Addr len = 5 * 1024 * 1024 + 123;
    const Addr base = as.reserve(len);
    Reservation *r = as.reservationFor(base);
    ASSERT_NE(r, nullptr);
    EXPECT_GE(r->length, r->requested);
    EXPECT_EQ(base % std::max<Addr>(cap::representableAlignment(
                                        roundUp(len, kPageSize)),
                                    kPageSize),
              0u);
    // Padding pages are guards.
    if (r->length > r->requested) {
        EXPECT_EQ(as.classify(base + r->requested, false, false),
                  FaultKind::kGuard);
    }
}

TEST(AddressSpace, DemandZeroThenResident)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    const Addr base = as.reserve(kPageSize * 4);
    EXPECT_EQ(as.classify(base, false, false), FaultKind::kDemandZero);
    as.makeResident(base);
    EXPECT_EQ(as.classify(base, false, false), FaultKind::kNone);
    EXPECT_EQ(as.residentPages(), 1u);
}

TEST(AddressSpace, UnmapCreatesGuardsAndQuarantinesReservation)
{
    EpochHarness h;
    h.onThread([&](sim::SimThread &t) {
        AddressSpace &as = h.as;
        const Addr base = as.reserve(kPageSize * 2);
        as.makeResident(base);
        as.makeResident(base + kPageSize);
        EXPECT_EQ(h.pm.framesInUse(), 2u);

        h.kernel.sysMunmap(t, base, kPageSize);
        EXPECT_EQ(as.classify(base, false, false), FaultKind::kGuard);
        EXPECT_EQ(h.pm.framesInUse(), 1u);
        EXPECT_TRUE(h.quarantined.empty());

        h.kernel.sysMunmap(t, base + kPageSize, kPageSize);
        ASSERT_EQ(h.quarantined, std::vector<Addr>{base});
        Reservation *r = as.reservationFor(base);
        EXPECT_EQ(r->state, ReservationState::kQuarantined);

        // Released reservations' VA is never recycled.
        h.reap(t);
        EXPECT_EQ(r->state, ReservationState::kFreed);
        const Addr base2 = as.reserve(kPageSize);
        EXPECT_GT(base2, base);
    });
}

TEST(AddressSpace, ShadowRegionIsImplicit)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    const Addr shadow = shadowByteFor(kHeapBase);
    EXPECT_EQ(as.classify(shadow, true, false),
              FaultKind::kDemandZero);
    Pte &p = as.makeResident(shadow);
    EXPECT_FALSE(p.cap_store); // bitmap pages never hold capabilities
}

/** Page bases forEachResidentPage visits, in visiting order. */
std::vector<Addr>
residentWalk(AddressSpace &as)
{
    std::vector<Addr> pages;
    as.forEachResidentPage([&](Addr va, Pte &) { pages.push_back(va); });
    return pages;
}

TEST(AddressSpace, AlignmentGapIsNotMapped)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    const Addr small = as.reserve(kPageSize);
    // 64 MiB needs a base aligned well beyond a page, so the second
    // reservation starts past a hole that belongs to neither.
    const Addr big = as.reserve(64 * 1024 * 1024);
    const Addr gap = small + as.reservationFor(small)->length;
    ASSERT_LT(gap, big);
    EXPECT_EQ(as.reservationFor(gap), nullptr);
    for (Addr va : {gap, big - kPageSize}) {
        EXPECT_EQ(as.classify(va, false, false), FaultKind::kNotMapped);
        EXPECT_EQ(as.classify(va, true, true), FaultKind::kNotMapped);
        EXPECT_EQ(as.findPte(va), nullptr);
    }
    // Beyond the last reservation and outside both windows alike.
    for (Addr va : {big + 64 * 1024 * 1024, kHeapCeiling,
                    kHeapBase - kPageSize, Addr{0x1234'5678'0000ull}}) {
        EXPECT_EQ(as.classify(va, false, false), FaultKind::kNotMapped);
        EXPECT_EQ(as.findPte(va), nullptr);
    }
}

TEST(AddressSpace, ReleasedReservationIsGuardedAndUnwalked)
{
    EpochHarness h;
    h.onThread([&](sim::SimThread &t) {
        AddressSpace &as = h.as;
        const Addr keep = as.reserve(kPageSize);
        as.makeResident(keep);
        const Addr base = as.reserve(kPageSize * 3);
        for (int i = 0; i < 3; ++i)
            as.makeResident(base + i * kPageSize);
        const Reservation r = *as.reservationFor(base);

        h.kernel.sysMunmap(t, base, kPageSize * 3);
        ASSERT_EQ(h.quarantined, std::vector<Addr>{base});
        h.reap(t);
        EXPECT_EQ(as.reservationFor(base)->state,
                  ReservationState::kFreed);

        for (Addr va = r.base; va < r.base + r.length; va += kPageSize) {
            EXPECT_EQ(as.classify(va, false, false), FaultKind::kGuard);
            EXPECT_EQ(as.classify(va, true, true), FaultKind::kGuard);
            EXPECT_EQ(as.findPte(va), nullptr);
        }
        EXPECT_EQ(residentWalk(as), std::vector<Addr>{keep});
        EXPECT_EQ(as.residentPages(), 1u);
    });
}

TEST(AddressSpace, WalkVisitsHeapThenShadowAscending)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    const Addr a = as.reserve(kPageSize * 4);
    const Addr b = as.reserve(kPageSize * 2);
    // Touch out of order; leave some pages of each reservation cold.
    const Addr s_lo = shadowByteFor(kHeapBase) + 5;
    const Addr s_hi = shadowByteFor(kHeapBase + 16 * 1024 * 1024);
    as.makeResident(s_hi);
    as.makeResident(b + kPageSize);
    as.makeResident(a + 3 * kPageSize);
    as.makeResident(s_lo);
    as.makeResident(a);

    const std::vector<Addr> expect = {a, a + 3 * kPageSize,
                                      b + kPageSize, pageBase(s_lo),
                                      pageBase(s_hi)};
    const std::vector<Addr> walk = residentWalk(as);
    EXPECT_EQ(walk, expect);
    for (std::size_t i = 1; i < walk.size(); ++i)
        EXPECT_LT(walk[i - 1], walk[i]);
    EXPECT_EQ(walk.size(), as.residentPages());
}

TEST(AddressSpace, PtePointerStableAcrossGrowth)
{
    mem::PhysMem pm;
    AddressSpace as(pm);
    const Addr base = as.reserve(kPageSize);
    Pte &resident = as.makeResident(base);
    Pte *p = as.findPte(base);
    ASSERT_EQ(p, &resident);
    const Addr pfn = p->pfn;
    Pte *shadow = &as.makeResident(shadowByteFor(base));

    // Grow the table well past its first allocation, in both windows.
    std::vector<Addr> bases;
    for (int i = 0; i < 600; ++i)
        bases.push_back(as.reserve(kPageSize * (1 + i % 3)));
    bases.push_back(as.reserve(64 * 1024 * 1024));
    for (Addr b : bases) {
        as.makeResident(b);
        as.makeResident(shadowByteFor(b));
    }

    EXPECT_EQ(as.findPte(base), p);
    EXPECT_EQ(as.findPte(shadowByteFor(base)), shadow);
    EXPECT_TRUE(p->valid);
    EXPECT_EQ(p->pfn, pfn);
    // Writes through the held pointer are what the table holds.
    p->cap_dirty = true;
    p->clg = 1;
    EXPECT_TRUE(as.findPte(base)->cap_dirty);
    EXPECT_EQ(as.findPte(base)->clg, 1u);
    as.makeResident(base);
    EXPECT_EQ(as.findPte(base)->pfn, pfn);
}

TEST(Tlb, InsertLookupInvalidate)
{
    Tlb tlb(4);
    Pte p;
    p.valid = true;
    p.pfn = 42;
    tlb.insert(7, p);
    ASSERT_NE(tlb.lookup(7), nullptr);
    EXPECT_EQ(tlb.lookup(7)->pfn, 42u);
    tlb.invalidatePage(7);
    EXPECT_EQ(tlb.lookup(7), nullptr);
}

TEST(Tlb, FifoEviction)
{
    Tlb tlb(2);
    Pte p;
    p.valid = true;
    tlb.insert(1, p);
    tlb.insert(2, p);
    tlb.insert(3, p); // evicts vpn 1
    EXPECT_EQ(tlb.lookup(1), nullptr);
    EXPECT_NE(tlb.lookup(2), nullptr);
    EXPECT_NE(tlb.lookup(3), nullptr);
}

TEST(Mmu, DemandFaultChargedOnce)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, base, 0x1234);
        EXPECT_EQ(h.mmu.stats().demand_faults, 1u);
        EXPECT_EQ(h.mmu.loadU64(t, base), 0x1234u);
        EXPECT_EQ(h.mmu.stats().demand_faults, 1u); // now resident
    });
}

TEST(Mmu, GuardTouchThrows)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.kernel.sysMunmap(t, base, kPageSize);
        EXPECT_THROW(h.mmu.loadU64(t, base), MemoryFault);
    });
}

TEST(Mmu, UnmappedTouchThrows)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        EXPECT_THROW(h.mmu.loadU64(t, 0x1234'5678'0000ull),
                     MemoryFault);
    });
}

TEST(Mmu, CapStoreSetsDirtyAndEverBits)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);
        Pte *p = h.as.findPte(base);
        ASSERT_NE(p, nullptr);
        EXPECT_TRUE(p->cap_dirty);
        EXPECT_TRUE(p->cap_ever);

        const cap::Capability back = h.mmu.loadCap(t, base);
        EXPECT_TRUE(back.tag);
        EXPECT_EQ(back.base, c.base);
        EXPECT_EQ(back.top, c.top);
    });
}

TEST(Mmu, UntaggedCapStoreDoesNotDirty)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        cap::Capability c = cap::Capability::root(base, base + 64);
        c.tag = false;
        h.mmu.storeCap(t, base, c);
        Pte *p = h.as.findPte(base);
        ASSERT_NE(p, nullptr);
        EXPECT_FALSE(p->cap_dirty);
        EXPECT_FALSE(p->cap_ever);
    });
}

TEST(Mmu, CapStoreToNoCapStorePageFaults)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize, /*cap_store=*/false);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        EXPECT_THROW(h.mmu.storeCap(t, base, c), MemoryFault);
        // Plain data stores are fine.
        h.mmu.storeU64(t, base, 7);
    });
}

TEST(Mmu, LoadBarrierTrapsOnStaleGenerationOnly)
{
    VmHarness h;
    int faults = 0;
    h.mmu.setLoadFaultHandler([&](sim::SimThread &t, Addr va) {
        ++faults;
        // Minimal self-healing handler: bring the PTE up to date.
        Pte *p = h.as.findPte(va);
        p->clg = h.mmu.currentGen();
        h.mmu.shootdownPage(t, va);
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);

        // Same generation: no trap.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 0);

        // Flip generations: next tagged load traps once, then heals.
        h.flipGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);
        EXPECT_EQ(h.mmu.stats().load_barrier_faults, 1u);
    });
}

TEST(Mmu, UntaggedLoadNeverTraps)
{
    VmHarness h;
    h.mmu.setLoadFaultHandler([](sim::SimThread &, Addr) {
        FAIL() << "untagged loads must not trap";
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, base, 99);
        h.flipGens(t);
        // Capability-width load of untagged data: no trap.
        const cap::Capability c = h.mmu.loadCap(t, base);
        EXPECT_FALSE(c.tag);
    });
}

TEST(Mmu, NewPagesAdoptCurrentGeneration)
{
    VmHarness h;
    h.mmu.setLoadFaultHandler([](sim::SimThread &, Addr) {
        FAIL() << "fresh pages must not trap";
    });
    h.onThread([&](sim::SimThread &t) {
        h.flipGens(t);
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c); // demand-fault adopts new gen
        EXPECT_TRUE(h.mmu.loadCap(t, base).tag);
    });
}

TEST(Mmu, KernelPathsBypassBarrierAndDirtyTracking)
{
    VmHarness h;
    h.mmu.setLoadFaultHandler([](sim::SimThread &, Addr) {
        FAIL() << "kernel loads must bypass the barrier";
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);
        h.flipGens(t);

        const cap::Capability k = h.mmu.kernelLoadCap(t, base);
        EXPECT_TRUE(k.tag);

        h.mmu.kernelClearTag(t, base);
        EXPECT_FALSE(h.tagAt(base));
    });
}

/**
 * In-place PTE mutations — the epoch-open CLG flip, load-fault
 * self-heals behind shootdownPage, the cap-dirty bit — must be what
 * the next translation sees: no host-side PTE copy other than the
 * TLB, which shootdowns clear, may sit in front of the page table. A
 * stale copy here would let a load slip past the barrier untrapped.
 */
TEST(Mmu, PteCacheInvalidatedAcrossEpochFlip)
{
    VmHarness h;
    int faults = 0;
    h.mmu.setLoadFaultHandler([&](sim::SimThread &t, Addr va) {
        ++faults;
        Pte *p = h.as.findPte(va);
        p->clg = h.mmu.currentGen();
        h.mmu.shootdownPage(t, va);
    });
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        const cap::Capability c =
            cap::Capability::root(base, base + 64);
        h.mmu.storeCap(t, base, c);

        // Warm the TLB.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 0);

        // Epoch open: generations flip via in-place PTE mutation.
        // The next load MUST observe the stale CLG and trap.
        h.flipGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);

        // The self-heal (also an in-place mutation, behind
        // shootdownPage) must likewise be visible: no double trap.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);

        // A second flip re-arms the same page.
        h.flipGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 2);
        EXPECT_EQ(h.mmu.stats().load_barrier_faults, 2u);
    });
}

TEST(Mmu, ShootdownForcesRewalk)
{
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        const Addr base = h.as.reserve(kPageSize);
        h.mmu.storeU64(t, base, 1);
        const auto hits_before = h.mmu.tlb(t.core()).hits();
        h.mmu.loadU64(t, base); // TLB hit
        EXPECT_GT(h.mmu.tlb(t.core()).hits(), hits_before);
        h.mmu.shootdownPage(t, base);
        const auto misses_before = h.mmu.tlb(t.core()).misses();
        h.mmu.loadU64(t, base); // must rewalk
        EXPECT_GT(h.mmu.tlb(t.core()).misses(), misses_before);
        EXPECT_EQ(h.mmu.stats().tlb_shootdowns, 1u);
    });
}

} // namespace
} // namespace crev::vm
