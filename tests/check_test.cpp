/**
 * @file
 * Tests for the simulation-aware race detector (DESIGN.md §11):
 * per-rule unit tests, seeded injected races that must be flagged
 * deterministically, silence on the clean tree, the zero-cost
 * contract (RunMetrics bit-identical with checking on or off, for
 * every strategy), and the hard assertions that stand in for the
 * checker when none is attached.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/race_checker.h"
#include "fingerprint.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "revoker/bitmap.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "vm/address_space.h"
#include "vm/mmu.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::RunMetrics;
using core::Strategy;
using test::fingerprint;

std::size_t
countRule(const check::RaceChecker &c, const std::string &rule)
{
    std::size_t n = 0;
    for (const check::Violation &v : c.violations())
        if (v.rule == rule)
            ++n;
    return n;
}

// ---------------------------------------------------------------------
// Rule unit tests (checker driven directly, no simulation).
// ---------------------------------------------------------------------

TEST(RaceCheckerRules, TeardownDuringOddEpochFlagged)
{
    check::RaceChecker c;
    c.onEpochAdvance(0, 100, 1); // epoch in progress
    c.onPteTeardown(1, 200, 0x4000'0000, /*locked=*/false);
    EXPECT_EQ(countRule(c, "pte-teardown-during-epoch"), 1u);
}

TEST(RaceCheckerRules, TeardownLockedOrBetweenEpochsSilent)
{
    check::RaceChecker c;
    c.onEpochAdvance(0, 100, 1);
    c.onPteTeardown(1, 200, 0x4000'0000, /*locked=*/true);
    c.onEpochAdvance(0, 300, 2); // epoch complete
    c.onPteTeardown(1, 400, 0x4000'1000, /*locked=*/false);
    EXPECT_TRUE(c.clean()) << c.reportJson();
}

TEST(RaceCheckerRules, DequarantineBeforeTargetFlagged)
{
    check::RaceChecker c;
    c.onDequarantineRelease(2, 500, /*target=*/4, /*counter=*/2);
    EXPECT_EQ(countRule(c, "epoch-order-violation"), 1u);
    c.onDequarantineRelease(2, 600, /*target=*/4, /*counter=*/4);
    EXPECT_EQ(c.violations().size(), 1u);
}

TEST(RaceCheckerRules, GenFlipAndStwScanRequireStwOwnership)
{
    check::RaceChecker c;
    c.onGenFlip(1, 100);
    c.onStwScan(1, 110);
    EXPECT_EQ(countRule(c, "gen-flip-outside-stw"), 1u);
    EXPECT_EQ(countRule(c, "stw-scan-outside-stw"), 1u);

    // Inside an owned stop-the-world window both are legitimate.
    c.onStwBegin(1);
    c.onGenFlip(1, 200);
    c.onStwScan(1, 210);
    c.onStwEnd(1);
    EXPECT_EQ(c.violations().size(), 2u);

    // Another thread scanning during a window it does not own races
    // the owner's walk over its register file.
    c.onStwBegin(1);
    c.onStwScan(2, 300);
    c.onStwEnd(1);
    EXPECT_EQ(countRule(c, "stw-scan-outside-stw"), 2u);
}

TEST(RaceCheckerRules, QuarantineAccessRequiresHeapLock)
{
    check::RaceChecker c;
    c.onQuarantineAccess(3, 100, /*locked=*/true);
    EXPECT_TRUE(c.clean());
    c.onQuarantineAccess(3, 200, /*locked=*/false);
    EXPECT_EQ(countRule(c, "quarantine-unlocked-access"), 1u);
}

TEST(RaceCheckerRules, MutexReleaseOrdersNextAcquirersPublishes)
{
    // Publishes of one page by two threads are ordered when a mutex
    // release → acquire edge connects them, unordered otherwise.
    int dummy_lock = 0;
    const Addr page = 0x4000'0000;

    check::RaceChecker ordered;
    ordered.onThreadSpawn(-1, 0);
    ordered.onThreadSpawn(-1, 1);
    ordered.onMutexAcquire(0, &dummy_lock);
    ordered.onPtePublish(0, 100, page, /*disciplined=*/true);
    ordered.onMutexRelease(0, &dummy_lock);
    ordered.onMutexAcquire(1, &dummy_lock);
    ordered.onPtePublish(1, 200, page, /*disciplined=*/true);
    EXPECT_TRUE(ordered.clean()) << ordered.reportJson();

    check::RaceChecker unordered;
    unordered.onThreadSpawn(-1, 0);
    unordered.onThreadSpawn(-1, 1);
    unordered.onPtePublish(0, 100, page, /*disciplined=*/true);
    unordered.onPtePublish(1, 200, page, /*disciplined=*/true);
    EXPECT_EQ(countRule(unordered, "pte-unordered-publish"), 1u);
}

TEST(RaceCheckerRules, StwWindowOrdersPublishesAcrossThreads)
{
    // STW begin joins every thread's history into the owner; STW end
    // publishes the owner's work to everyone. A publish before the
    // window and one after it are therefore ordered.
    check::RaceChecker c;
    c.onThreadSpawn(-1, 0);
    c.onThreadSpawn(-1, 1);
    const Addr page = 0x4000'0000;
    c.onPtePublish(0, 100, page, /*disciplined=*/true);
    c.onStwBegin(1);
    c.onPtePublish(1, 200, page, /*disciplined=*/true);
    c.onStwEnd(1);
    c.onPtePublish(0, 300, page, /*disciplined=*/true);
    EXPECT_TRUE(c.clean()) << c.reportJson();
}

TEST(RaceCheckerRules, ReportCapSuppressesPastLimit)
{
    check::RaceChecker c;
    for (int i = 0; i < 1005; ++i)
        c.onQuarantineAccess(0, static_cast<Cycles>(i),
                             /*locked=*/false);
    EXPECT_EQ(c.violations().size(), 1000u);
    EXPECT_EQ(c.suppressed(), 5u);
    EXPECT_NE(c.reportJson().find("\"suppressed\":5"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Seeded injected races through the real simulation paths.
// ---------------------------------------------------------------------

/** Scheduler + vmspace + bitmap with a checker attached — enough
 *  machinery to drive the instrumented paths directly. */
struct CheckHarness
{
    CheckHarness()
        : ms(2, mem::CacheConfig{32 * 1024, 4},
             mem::CacheConfig{256 * 1024, 8}, mem::MemLatency{}),
          sched(2, sim::CostModel{}), as(pm),
          mmu(pm, ms, as, sched.costs()), bitmap(mmu)
    {
        sched.setChecker(&checker);
        as.setChecker(&checker);
    }

    mem::PhysMem pm;
    mem::MemorySystem ms;
    sim::Scheduler sched;
    vm::AddressSpace as;
    vm::Mmu mmu;
    revoker::RevocationBitmap bitmap;
    check::RaceChecker checker;
};

TEST(RaceCheckerInjected, LocklessPtePublishFlagged)
{
    // Two threads publish the same page, neither holding the pmap
    // lock nor stopping the world: both publishes are undisciplined,
    // and nothing orders one against the other.
    auto run_once = [](std::string &report) {
        CheckHarness h;
        const Addr page = 0x4000'0000;
        h.sched.spawn("a", 1u << 0, [&](sim::SimThread &t) {
            h.as.notePtePublish(t, page, vm::PteContext::kLocked);
        });
        h.sched.spawn("b", 1u << 1, [&](sim::SimThread &t) {
            h.as.notePtePublish(t, page, vm::PteContext::kLocked);
        });
        h.sched.run();
        report = h.checker.reportJson();
        EXPECT_EQ(countRule(h.checker, "pte-unlocked-publish"), 2u)
            << report;
        EXPECT_EQ(countRule(h.checker, "pte-unordered-publish"), 1u)
            << report;
    };
    std::string first;
    std::string second;
    run_once(first);
    run_once(second);
    // Deterministic simulation ⇒ byte-identical reports.
    EXPECT_EQ(first, second);
}

TEST(RaceCheckerInjected, LockedPublishesAreSilent)
{
    CheckHarness h;
    const Addr page = 0x4000'0000;
    for (const char *name : {"a", "b"}) {
        h.sched.spawn(name, 1u << 0, [&](sim::SimThread &t) {
            h.as.pmapLock().lock(t);
            h.as.notePtePublish(t, page, vm::PteContext::kLocked);
            h.as.pmapLock().unlock(t);
        });
    }
    h.sched.run();
    // Disciplined, and ordered by the pmap release → acquire edge.
    EXPECT_TRUE(h.checker.clean()) << h.checker.reportJson();
}

TEST(RaceCheckerInjected, TornBitmapRmwVsProbeFlagged)
{
    // Thread a paints granules 1–2 of a shadow byte through the
    // deliberately torn read-modify-write (the token is handed away
    // between the shadow load and store). Thread b probes granule 5
    // — an unpainted granule of the *same* shadow byte — inside that
    // window: the torn-read hazard the NoYield guard prevents.
    auto run_once = [](std::string &report) {
        CheckHarness h;
        h.bitmap.setTornRmwForTest(true);
        const Addr base = 0x4000'0000;
        h.sched.spawn("a", 1u << 0, [&](sim::SimThread &t) {
            h.bitmap.paint(t, base + 1 * kGranuleSize,
                           2 * kGranuleSize);
        });
        h.sched.spawn("b", 1u << 1, [&](sim::SimThread &t) {
            EXPECT_FALSE(h.bitmap.probe(t, base + 5 * kGranuleSize));
        });
        h.sched.run();
        report = h.checker.reportJson();
        EXPECT_EQ(countRule(h.checker, "shadow-rmw-race"), 1u)
            << report;
    };
    std::string first;
    std::string second;
    run_once(first);
    run_once(second);
    EXPECT_EQ(first, second);
}

TEST(RaceCheckerInjected, TornBitmapRmwVsBulkWriteFlagged)
{
    // Same torn window, but the intruder is a bulk whole-byte paint
    // covering the byte under RMW: thread a's delayed store will
    // clobber thread b's bits (the classic lost update).
    CheckHarness h;
    h.bitmap.setTornRmwForTest(true);
    const Addr base = 0x4000'0000;
    h.sched.spawn("a", 1u << 0, [&](sim::SimThread &t) {
        h.bitmap.paint(t, base + 1 * kGranuleSize, 2 * kGranuleSize);
    });
    h.sched.spawn("b", 1u << 1, [&](sim::SimThread &t) {
        h.bitmap.paint(t, base, 64 * kGranuleSize);
    });
    h.sched.run();
    EXPECT_GE(countRule(h.checker, "shadow-rmw-race"), 1u)
        << h.checker.reportJson();
}

TEST(RaceCheckerInjected, GuardedRmwIsSilentUnderSameInterleaving)
{
    // Control: the very same thread bodies with the NoYield guard in
    // place (torn mode off) produce no window and no report.
    CheckHarness h;
    const Addr base = 0x4000'0000;
    h.sched.spawn("a", 1u << 0, [&](sim::SimThread &t) {
        h.bitmap.paint(t, base + 1 * kGranuleSize, 2 * kGranuleSize);
    });
    h.sched.spawn("b", 1u << 1, [&](sim::SimThread &t) {
        EXPECT_FALSE(h.bitmap.probe(t, base + 5 * kGranuleSize));
    });
    h.sched.run();
    EXPECT_TRUE(h.checker.clean()) << h.checker.reportJson();
}

// ---------------------------------------------------------------------
// Whole-machine: silence on the clean tree, and the zero-cost
// contract (complete RunMetrics identical with checking on or off).
// ---------------------------------------------------------------------

TEST(CheckZeroCost, SpecCleanAndMetricsIdenticalAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy = workload::specPolicy();

        cfg.check = true;
        Machine on(cfg);
        workload::runSpec(on, workload::specProfile("hmmer_retro"));
        ASSERT_NE(on.checkerOrNull(), nullptr);
        EXPECT_TRUE(on.checkerOrNull()->clean())
            << core::strategyName(s) << ": " << on.checkReportJson();

        cfg.check = false;
        Machine off(cfg);
        workload::runSpec(off, workload::specProfile("hmmer_retro"));
        EXPECT_EQ(off.checkerOrNull(), nullptr);
        EXPECT_EQ(fingerprint(on.metrics()), fingerprint(off.metrics()))
            << "strategy " << core::strategyName(s);
    }
}

RunMetrics
runChaosWith(Strategy s, bool check, std::string *report = nullptr)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.audit = true;
    cfg.check = check;
    cfg.policy.min_bytes = 32 * 1024; // revoke frequently
    cfg.background_sweepers = 2;
    cfg.seed = 42;
    cfg.faults.enabled = true;
    cfg.faults.seed = 909;
    cfg.faults.sweeper_stall_prob = 0.05;
    cfg.faults.sweeper_stall_cycles = 250'000;
    cfg.faults.sweeper_kill_prob = 0.10;
    cfg.faults.max_sweeper_kills = 1;
    cfg.faults.fault_drop_prob = 0.10;
    cfg.faults.max_fault_drops = 4;
    cfg.faults.fault_duplicate_prob = 0.10;
    cfg.faults.stw_delay_prob = 0.25;
    cfg.faults.stw_delay_cycles = 25'000;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3,
                   [&](Mutator &ctx) { test::churn(m, ctx, 800); });
    m.run();
    if (check) {
        EXPECT_TRUE(m.checkerOrNull()->clean())
            << core::strategyName(s) << ": " << m.checkReportJson();
        if (report != nullptr)
            *report = m.checkReportJson();
    }
    return m.metrics();
}

TEST(CheckZeroCost, ChaosCleanAndMetricsIdenticalAllStrategies)
{
    // Fault injection, the recovery ladder, emergency STW sweeps, and
    // the per-epoch audit: the checker must stay silent through all of
    // it and must not perturb a single scheduling point.
    for (Strategy s : core::kAllStrategies) {
        const std::string checked =
            fingerprint(runChaosWith(s, true));
        const std::string reference =
            fingerprint(runChaosWith(s, false));
        EXPECT_EQ(checked, reference)
            << "strategy " << core::strategyName(s);
    }
}

TEST(CheckZeroCost, ChaosReportIsByteIdenticalAcrossRuns)
{
    std::string first;
    std::string second;
    runChaosWith(Strategy::kReloaded, true, &first);
    runChaosWith(Strategy::kReloaded, true, &second);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------
// Hard assertions when no checker is attached.
// ---------------------------------------------------------------------

TEST(CheckAssertionsDeathTest, AssertHeldDiesWhenNotHeld)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            sim::Scheduler s(1, sim::CostModel{});
            sim::SimMutex m;
            s.spawn("t", 1u,
                    [&](sim::SimThread &t) { m.assertHeld(t); });
            s.run();
        },
        "assertion failed");
}

TEST(CheckAssertionsDeathTest, NotePtePublishEnforcedWithoutChecker)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            mem::PhysMem pm;
            vm::AddressSpace as(pm);
            sim::Scheduler s(1, sim::CostModel{});
            s.spawn("t", 1u, [&](sim::SimThread &t) {
                as.notePtePublish(t, vm::kHeapBase,
                                  vm::PteContext::kLocked);
            });
            s.run();
        },
        "assertion failed");
}

} // namespace
} // namespace crev
