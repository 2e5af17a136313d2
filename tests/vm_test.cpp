/**
 * @file
 * Tests for the VM layer: reservations with representability padding
 * and guard pages, demand paging, TLB behaviour, capability-dirty
 * store tracking, and the load-barrier trap plumbing.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cap/compression.h"
#include "kern/kernel.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
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

    mem::PhysMem pm;
    mem::MemorySystem ms;
    sim::Scheduler sched;
    AddressSpace as;
    Mmu mmu;
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
    VmHarness h;
    h.onThread([&](sim::SimThread &t) {
        AddressSpace &as = h.as;
        const Addr base = as.reserve(kPageSize * 2);
        as.makeResident(base);
        as.makeResident(base + kPageSize);
        EXPECT_EQ(h.pm.framesInUse(), 2u);

        as.unmap(t, base, kPageSize);
        EXPECT_EQ(as.classify(base, false, false), FaultKind::kGuard);
        EXPECT_EQ(h.pm.framesInUse(), 1u);
        EXPECT_TRUE(as.takeNewlyQuarantined(t).empty());

        as.unmap(t, base + kPageSize, kPageSize);
        auto quarantined = as.takeNewlyQuarantined(t);
        ASSERT_EQ(quarantined.size(), 1u);
        EXPECT_EQ(quarantined[0]->state,
                  ReservationState::kQuarantined);

        // Released reservations' VA is never recycled.
        as.release(t, quarantined[0]);
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
        h.as.unmap(t, base, kPageSize);
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
        h.mmu.flipAllCoreGens(t);
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
        h.mmu.flipAllCoreGens(t);
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
        h.mmu.flipAllCoreGens(t);
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
        h.mmu.flipAllCoreGens(t);

        const cap::Capability k = h.mmu.kernelLoadCap(t, base);
        EXPECT_TRUE(k.tag);

        h.mmu.kernelClearTag(t, base);
        EXPECT_FALSE(h.mmu.peekTag(base));
    });
}

/**
 * Regression for the one-entry PTE pointer cache (PR 2): in-place PTE
 * mutations — the epoch-open CLG flip, load-fault self-heals behind
 * shootdownPage, the cap-dirty bit — do not bump the page-table
 * epoch that keys the cache, so each such site must invalidate it
 * explicitly. A stale cached walk here would let a load slip past
 * the barrier untrapped.
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

        // Warm both the TLB and the PTE pointer cache.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 0);

        // Epoch open: generations flip via in-place PTE mutation.
        // The next load walks through whatever the cache returns and
        // MUST still observe the stale CLG and trap.
        h.mmu.flipAllCoreGens(t);
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);

        // The self-heal (also an in-place mutation, behind
        // shootdownPage) must likewise be visible: no double trap.
        h.mmu.loadCap(t, base);
        EXPECT_EQ(faults, 1);

        // A second flip re-arms through the same cached entry.
        h.mmu.flipAllCoreGens(t);
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
