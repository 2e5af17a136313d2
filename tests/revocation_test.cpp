/**
 * @file
 * End-to-end revocation tests, including the randomized property test
 * that drives malloc/free/copy/load/store churn under every strategy
 * with the whole-machine invariant audit enabled after every epoch
 * (paper §2.2.3's central guarantee).
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/logging.h"
#include "core/machine.h"
#include "core/mutator.h"
#include "revoker/auditor.h"
#include "trace/trace.h"
#include "vm/fault.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::Strategy;

/** Strategies that provide temporal safety. */
const Strategy kSafeStrategies[] = {
    Strategy::kCheriVoke, Strategy::kCornucopia, Strategy::kReloaded,
    Strategy::kCheriotFilter};

class SafeStrategyTest : public ::testing::TestWithParam<Strategy>
{
};

TEST_P(SafeStrategyTest, UafCapabilityIsRevokedEverywhere)
{
    MachineConfig cfg;
    cfg.strategy = GetParam();
    cfg.audit = true;
    cfg.policy.min_bytes = 1 << 20;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        // Hide the dangling capability in three places: a register,
        // heap memory, and a kernel hoard.
        const cap::Capability victim = ctx.malloc(128);
        const cap::Capability holder = ctx.malloc(64);
        ctx.thread().reg(5) = victim;
        ctx.storeCap(holder, 0, victim);
        const std::size_t slot = ctx.hoardPut(victim);

        ctx.free(victim);
        m.heap().drain(ctx.thread());

        EXPECT_FALSE(ctx.thread().reg(5).tag) << "register not swept";
        EXPECT_FALSE(ctx.loadCap(holder, 0).tag) << "memory not swept";
        EXPECT_FALSE(ctx.hoardTake(slot).tag) << "hoard not swept";
    });
    m.run();
    EXPECT_GT(m.metrics().sweep.regs_revoked, 0u);
}

TEST_P(SafeStrategyTest, UnrelatedCapabilitiesSurviveRevocation)
{
    MachineConfig cfg;
    cfg.strategy = GetParam();
    cfg.audit = true;
    cfg.policy.min_bytes = 1 << 20;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        const cap::Capability keep = ctx.malloc(128);
        const cap::Capability holder = ctx.malloc(64);
        ctx.store64(keep, 8, 77);
        ctx.storeCap(holder, 0, keep);
        const cap::Capability victim = ctx.malloc(128);
        ctx.free(victim);
        m.heap().drain(ctx.thread());

        const cap::Capability live = ctx.loadCap(holder, 0);
        EXPECT_TRUE(live.tag);
        EXPECT_EQ(ctx.load64(live, 8), 77u);
    });
    m.run();
}

TEST_P(SafeStrategyTest, InnerPointersAreRevokedToo)
{
    // A narrowed capability derived from a freed allocation decodes
    // with the allocation's base, so the base-granule probe kills it.
    MachineConfig cfg;
    cfg.strategy = GetParam();
    cfg.audit = true;
    cfg.policy.min_bytes = 1 << 20;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        const cap::Capability obj = ctx.malloc(256);
        const cap::Capability inner =
            obj.setBounds(obj.base + 64, obj.base + 128);
        ASSERT_TRUE(inner.tag);
        const cap::Capability holder = ctx.malloc(64);
        ctx.storeCap(holder, 0, inner);
        ctx.free(obj);
        m.heap().drain(ctx.thread());
        EXPECT_FALSE(ctx.loadCap(holder, 0).tag);
    });
    m.run();
}

TEST_P(SafeStrategyTest, EpochCounterAdvancesByTwo)
{
    MachineConfig cfg;
    cfg.strategy = GetParam();
    cfg.policy.min_bytes = 1 << 20;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        EXPECT_EQ(m.kernel().epoch().value(), 0u);
        const cap::Capability a = ctx.malloc(64);
        ctx.free(a);
        m.heap().drain(ctx.thread());
        const auto v = m.kernel().epoch().value();
        EXPECT_GT(v, 0u);
        EXPECT_EQ(v % 2, 0u) << "counter must be even when idle";
    });
    m.run();
}

/**
 * The randomized churn property test. A workload keeps a working set
 * of objects, randomly allocating, freeing, linking objects with
 * capabilities, chasing those links, and occasionally hoarding
 * pointers kernel-side. The audit hook validates the revocation
 * invariant after every epoch; capability faults must never occur
 * because the workload (unlike an attacker) never dereferences
 * pointers it freed.
 */
void
churn(Machine &m, Mutator &ctx, int iters)
{
    struct Obj
    {
        cap::Capability c;
        std::size_t size;
    };
    std::vector<Obj> live;
    auto &rng = ctx.rng();

    for (int i = 0; i < iters; ++i) {
        const double dice = rng.uniform();
        if (dice < 0.45 || live.size() < 4) {
            const std::size_t size = 16 << rng.below(7); // 16..1024
            live.push_back({ctx.malloc(size), size});
            ctx.store64(live.back().c, 0, i);
        } else if (dice < 0.80) {
            const std::size_t idx = rng.below(live.size());
            ctx.free(live[idx].c);
            live[idx] = live.back();
            live.pop_back();
        } else if (dice < 0.90) {
            // Link two live objects and chase the link.
            const std::size_t a = rng.below(live.size());
            const std::size_t b = rng.below(live.size());
            if (live[a].size >= 32) {
                ctx.storeCap(live[a].c, 16, live[b].c);
                const cap::Capability back =
                    ctx.loadCap(live[a].c, 16);
                ASSERT_TRUE(back.tag);
                ctx.store64(back, 0, i);
            }
        } else if (dice < 0.95) {
            // Park a live pointer in a register.
            ctx.thread().reg(1 + rng.below(8)) =
                live[rng.below(live.size())].c;
        } else {
            // Kernel hoard round trip of a live pointer.
            const std::size_t slot =
                ctx.hoardPut(live[rng.below(live.size())].c);
            const cap::Capability back = ctx.hoardTake(slot);
            ASSERT_TRUE(back.tag);
        }
    }
    for (auto &o : live)
        ctx.free(o.c);
    m.heap().drain(ctx.thread());
}

TEST_P(SafeStrategyTest, RandomChurnHoldsInvariantAuditedEveryEpoch)
{
    MachineConfig cfg;
    cfg.strategy = GetParam();
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024; // revoke frequently
    cfg.seed = 1234;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3,
                   [&m](Mutator &ctx) { churn(m, ctx, 4000); });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GT(metrics.epochs.size(), 3u)
        << "the policy should have forced several epochs";
    EXPECT_GT(metrics.sweep.caps_revoked, 0u);
}

TEST_P(SafeStrategyTest, ChurnIsDeterministic)
{
    auto run_once = [](Strategy s) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy.min_bytes = 8 * 1024;
        cfg.seed = 77;
        Machine m(cfg);
        m.spawnMutator("app", 1u << 3,
                       [&m](Mutator &ctx) { churn(m, ctx, 1500); });
        m.run();
        const auto mm = m.metrics();
        return std::make_tuple(mm.wall_cycles, mm.cpu_cycles,
                               mm.bus_transactions_total,
                               mm.epochs.size(), mm.sweep.caps_revoked);
    };
    EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, SafeStrategyTest,
    ::testing::ValuesIn(kSafeStrategies),
    [](const ::testing::TestParamInfo<Strategy> &info) {
        switch (info.param) {
          case Strategy::kCheriVoke:
            return "CheriVoke";
          case Strategy::kCornucopia:
            return "Cornucopia";
          case Strategy::kReloaded:
            return "Reloaded";
          case Strategy::kCheriotFilter:
            return "CheriotFilter";
          default:
            return "Other";
        }
    });

TEST(Reloaded, LoadBarrierFaultsOccurAndSelfHeal)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        churn(m, ctx, 3000);
    });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GT(metrics.mmu.load_barrier_faults, 0u)
        << "a churn workload must take some load-barrier faults";
    // Self-healing: every fault resolves; fault totals are recorded.
    std::uint64_t fault_count = 0;
    for (const auto &e : metrics.epochs)
        fault_count += e.fault_count;
    EXPECT_EQ(fault_count, metrics.mmu.load_barrier_faults);
}

/**
 * A fault's page visit publishes the generation it read *before* its
 * unlocked sweep (§4.3), not the one current when it relocks. Here an
 * epoch's stop-the-world flip lands inside that sweep, and the object
 * a capability on the page points to is freed (painted) inside the
 * same window, after the sweep has probed past it. Publishing the
 * pre-sweep generation leaves the page stale for the new epoch, so
 * the faulting load's retry traps again and its second sweep revokes
 * the capability. Publishing the new generation would mark the page
 * swept for an epoch it was not swept in, and the capability would
 * outlive its object's epoch.
 *
 * The page must be stale *between* epochs for a fault to straddle a
 * flip (an epoch waits out its in-flight faults before closing), so
 * the machine runs §7.6's always-trap disposition. A background visit
 * cannot straddle a flip at all: the daemon flips, and it waits out
 * its helpers before the next epoch can open.
 */
TEST(Reloaded, FaultPublishesTheGenerationReadBeforeItsSweep)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.always_trap_clean = true;
    cfg.oracle = true;
    cfg.trace = true;
    cfg.policy.min_bytes = 1 << 20; // epochs only when drained
    Machine m(cfg);

    // Audit every epoch without panicking, so a violation fails the
    // test instead of the process.
    std::size_t audits = 0;
    std::size_t violations = 0;
    m.revokerOrNull()->setAuditHook([&](sim::SimThread &) {
        ++audits;
        for (const std::string &v : m.auditorOrNull()->findViolations()) {
            ADD_FAILURE() << v;
            ++violations;
        }
    });

    // Each of the page's other capabilities has its base in its own
    // bitmap line, so every probe misses the cache and the fault's
    // sweep lasts long enough for the other thread to free the victim
    // and open an epoch inside it.
    constexpr Addr kSpread = 8 * 1024;
    // Puts the free after the sweep's first probe and the flip before
    // its relock; the trace check below fails if a cost-model change
    // moves the flip out of the sweep.
    constexpr Cycles kFreeDelay = 10'000;
    cap::Capability victim;
    sim::SimThread *faulter = nullptr;
    bool armed = false;
    bool revoked = false;

    faulter = m.spawnMutator("faulter", 1u << 3, [&](Mutator &ctx) {
        const cap::Capability spread =
            ctx.malloc(kGranulesPerPage * kSpread);
        victim = ctx.malloc(64);
        const cap::Capability holder = ctx.malloc(2 * kPageSize);
        const Addr page = roundUp(holder.base, kPageSize) - holder.base;
        // The page holds plain data only, so the first epoch finds it
        // clean and leaves it always-trap.
        ctx.store64(holder, page, 1);
        ctx.free(ctx.malloc(64));
        m.heap().drain(ctx.thread());
        const vm::Pte *pte = m.addressSpace().findPte(holder.base + page);
        ASSERT_NE(pte, nullptr);
        ASSERT_TRUE(pte->cap_load_trap);

        // The victim's capability sits in the first granule, which the
        // fault's sweep probes first.
        ctx.storeCap(holder, page, victim);
        for (std::size_t g = 1; g < kGranulesPerPage; ++g) {
            const Addr base = spread.base + g * kSpread;
            ctx.storeCap(holder, page + g * kGranuleSize,
                         spread.setBounds(base, base + kGranuleSize));
        }
        armed = true;
        ctx.loadCap(holder, page); // traps: the page is always-trap
        while (!revoked)
            ctx.sleep(100'000);
        EXPECT_FALSE(ctx.loadCap(holder, page).tag)
            << "the capability outlived the epoch that freed its object";
    });

    m.spawnMutator("freer", 1u << 1, [&](Mutator &ctx) {
        while (!armed)
            ctx.sleep(1'000);
        ctx.sleep(kFreeDelay);
        ctx.free(victim);
        m.heap().drain(ctx.thread());
        revoked = true;
    });

    m.run();
    EXPECT_GT(audits, 0u);
    EXPECT_EQ(violations, 0u);
    EXPECT_EQ(m.metrics().oracle_violations, 0u);

    // The window was really hit: a stop-the-world window opened inside
    // one of the faulter's load-fault sweeps.
    std::vector<std::pair<Cycles, Cycles>> fault_sweeps;
    std::vector<Cycles> stw_begins;
    const trace::Tracer &tr = *m.tracerOrNull();
    for (std::size_t tid = 0; tid < tr.numThreads(); ++tid) {
        const trace::TraceBuffer *b = tr.buffer(tid);
        if (b == nullptr)
            continue;
        Cycles open = 0;
        b->forEach([&](const trace::Event &e) {
            if (e.type == trace::EventType::kStwBegin)
                stw_begins.push_back(e.at);
            if (e.tid != faulter->id() ||
                e.arg8 != static_cast<std::uint8_t>(
                              trace::Phase::kLoadFaultSweep))
                return;
            if (e.type == trace::EventType::kPhaseBegin)
                open = e.at;
            else if (e.type == trace::EventType::kPhaseEnd)
                fault_sweeps.emplace_back(open, e.at);
        });
    }
    bool hit = false;
    for (const auto &[begin, end] : fault_sweeps)
        for (Cycles s : stw_begins)
            hit = hit || (begin < s && s < end);
    EXPECT_TRUE(hit) << "no epoch flip landed inside a fault's sweep";
}

/**
 * §7.6: a page left in the always-trap disposition keeps no
 * generation, so a capability stored to it after its clean visit
 * makes it dirty, and the next epoch must sweep it. Skipping trap
 * pages would let the capability outlive its object's epoch: once
 * the address is reissued, the trapping load's sweep probes an
 * already-unpainted bitmap and hands the stale capability out tagged.
 */
TEST(Reloaded, EpochSweepsATrapPageDirtiedAfterItsCleanVisit)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.always_trap_clean = true;
    cfg.oracle = true;
    cfg.policy.min_bytes = 1 << 20; // epochs only when drained
    Machine m(cfg);

    std::size_t audits = 0;
    std::size_t violations = 0;
    m.revokerOrNull()->setAuditHook([&](sim::SimThread &) {
        ++audits;
        for (const std::string &v : m.auditorOrNull()->findViolations()) {
            ADD_FAILURE() << v;
            ++violations;
        }
    });

    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        const cap::Capability holder = ctx.malloc(2 * kPageSize);
        const Addr page = roundUp(holder.base, kPageSize) - holder.base;
        // Plain data only: the first epoch finds the page clean and
        // leaves it always-trap.
        ctx.store64(holder, page, 1);
        ctx.free(ctx.malloc(64));
        m.heap().drain(ctx.thread());
        const vm::Pte *pte = m.addressSpace().findPte(holder.base + page);
        ASSERT_NE(pte, nullptr);
        ASSERT_TRUE(pte->cap_load_trap);

        const cap::Capability victim = ctx.malloc(64);
        ctx.storeCap(holder, page, victim);
        ctx.free(victim);
        m.heap().drain(ctx.thread());

        const cap::Capability reissued = ctx.malloc(64);
        ASSERT_EQ(reissued.base, victim.base)
            << "the allocator did not reissue the freed object";
        EXPECT_FALSE(ctx.loadCap(holder, page).tag)
            << "a stale capability loaded after its object was reissued";
    });

    m.run();
    EXPECT_GT(audits, 0u);
    EXPECT_EQ(violations, 0u);
    EXPECT_EQ(m.metrics().oracle_violations, 0u);
}

TEST(Reloaded, StwIsShortComparedToCornucopia)
{
    // The headline claim, in miniature: Reloaded's stop-the-world
    // phase must be orders of magnitude shorter than Cornucopia's on
    // a heap-heavy workload. We compare worst-case pauses (epochs
    // that run while the mutator happens to be idle see empty STW
    // re-sweeps under Cornucopia, diluting medians — the same "hidden
    // in idle time" effect as the paper's §5.2).
    auto worst_stw = [](Strategy s) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy.min_bytes = 64 * 1024;
        Machine m(cfg);
        m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
            // Large live graph plus a store-heavy mutator: pages keep
            // getting re-dirtied while the concurrent phase runs, so
            // Cornucopia's STW re-sweep has real work (the paper's
            // memory-intensive regime). The free rate is low enough
            // that the mutator never blocks on a full quarantine.
            std::vector<cap::Capability> keep;
            for (int i = 0; i < 400; ++i) {
                keep.push_back(ctx.malloc(2048));
                ctx.storeCap(keep.back(), 0,
                             keep[ctx.rng().below(keep.size())]);
            }
            for (int round = 0; round < 1200; ++round) {
                for (int s = 0; s < 150; ++s) {
                    const auto a = ctx.rng().below(keep.size());
                    const auto b = ctx.rng().below(keep.size());
                    ctx.storeCap(keep[a], 16 * (1 + (s % 8)),
                                 keep[b]);
                }
                for (int k = 0; k < 2; ++k)
                    ctx.free(ctx.malloc(512));
            }
            for (auto &c : keep)
                ctx.free(c);
            m.heap().drain(ctx.thread());
        });
        m.run();
        Cycles worst = 0;
        for (const auto &e : m.metrics().epochs)
            worst = std::max(worst, e.stw_duration);
        CREV_ASSERT(worst > 0);
        return worst;
    };
    const Cycles corn = worst_stw(Strategy::kCornucopia);
    const Cycles rel = worst_stw(Strategy::kReloaded);
    EXPECT_LT(rel * 50, corn)
        << "Reloaded STW should be orders of magnitude below "
           "Cornucopia's";
}

TEST(PaintOnly, ProvidesNoSafetyButAdvancesEpochs)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kPaintOnly;
    cfg.policy.min_bytes = 8 * 1024;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        const cap::Capability holder = ctx.malloc(64);
        const cap::Capability victim = ctx.malloc(64);
        ctx.storeCap(holder, 0, victim);
        ctx.free(victim);
        m.heap().drain(ctx.thread());
        // No sweep: the stale capability survives (unsafe by design).
        EXPECT_TRUE(ctx.loadCap(holder, 0).tag);
    });
    m.run();
    EXPECT_EQ(m.metrics().sweep.pages_swept, 0u);
    EXPECT_GT(m.metrics().epochs.size(), 0u);
}

TEST(Cornucopia, RedirtiedPagesAreResweptInStw)
{
    // The store barrier at work: pages written during the concurrent
    // phase must be revisited world-stopped. We detect this indirectly
    // via sweep totals exceeding the resident cap-page count.
    MachineConfig cfg;
    cfg.strategy = Strategy::kCornucopia;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        churn(m, ctx, 4000);
    });
    m.run();
    // With audits green, correctness held even with concurrent stores.
    EXPECT_GT(m.metrics().sweep.pages_swept, 0u);
}

} // namespace
} // namespace crev
