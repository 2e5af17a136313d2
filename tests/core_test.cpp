/**
 * @file
 * Tests for the public façade: Mutator's CHERI dereference semantics
 * (tag/permission/bounds checks), metrics plumbing, and the full
 * configuration matrix of the Reloaded revoker run as a parameterized
 * property sweep (clean detection x always-trap x sweeper count),
 * each audited after every epoch, and the host memory a machine
 * commits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"
#include "vm/fault.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::Strategy;

// ---------------------------------------------------------------- //
// Mutator dereference semantics
// ---------------------------------------------------------------- //

TEST(Mutator, UntaggedDereferenceFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        cap::Capability c = ctx.malloc(64);
        c.tag = false;
        EXPECT_THROW(ctx.load64(c, 0), vm::CapabilityFault);
        EXPECT_THROW(ctx.store64(c, 0, 1), vm::CapabilityFault);
        EXPECT_THROW(ctx.loadCap(c, 16), vm::CapabilityFault);
    });
    m.run();
}

TEST(Mutator, OutOfBoundsDereferenceFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(64);
        EXPECT_THROW(ctx.load64(c, 64), vm::CapabilityFault);
        EXPECT_THROW(ctx.load64(c, 60), vm::CapabilityFault); // spans
        EXPECT_THROW(ctx.store64(c, 1000, 1), vm::CapabilityFault);
        // Last full word is fine.
        ctx.store64(c, 56, 1);
        EXPECT_EQ(ctx.load64(c, 56), 1u);
    });
    m.run();
}

TEST(Mutator, MissingPermissionFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(64);
        const cap::Capability ro = c.andPerms(cap::kPermLoad);
        EXPECT_EQ(ctx.load64(ro, 0), 0u);
        EXPECT_THROW(ctx.store64(ro, 0, 1), vm::CapabilityFault);
        EXPECT_THROW(ctx.loadCap(ro, 16), vm::CapabilityFault);
        EXPECT_THROW(ctx.storeCap(ro, 16, c), vm::CapabilityFault);
    });
    m.run();
}

TEST(Mutator, NarrowedCapabilityConfinesAccess)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(256);
        const cap::Capability sub =
            c.setBounds(c.base + 64, c.base + 128);
        ASSERT_TRUE(sub.tag);
        ctx.store64(sub, 0, 7);      // at sub.base
        EXPECT_THROW(ctx.load64(sub, 64), vm::CapabilityFault);
        // Through the parent the same address is reachable.
        EXPECT_EQ(ctx.load64(c, 64), 7u);
    });
    m.run();
}

TEST(Mutator, DataStoreShreddsOverlappingCapability)
{
    // CHERI tag semantics end-to-end: overwriting a stored capability
    // with plain data destroys it.
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability holder = ctx.malloc(64);
        const cap::Capability v = ctx.malloc(64);
        ctx.storeCap(holder, 16, v);
        EXPECT_TRUE(ctx.loadCap(holder, 16).tag);
        ctx.store64(holder, 24, 0x0abcdef0); // within the granule
        EXPECT_FALSE(ctx.loadCap(holder, 16).tag);
    });
    m.run();
}

/** What a data read leaves behind on the machine's clocks and counters. */
struct ReadFootprint
{
    Cycles clock = 0;
    Cycles busy = 0;
    mem::MemCounters mem;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
};

/**
 * Run @p read on the one mutator of a fresh baseline machine, handing
 * it a 3-page allocation and the offset of a 1000-byte span in it that
 * crosses a page boundary 100 bytes in; returns the footprint.
 */
template <typename Read>
ReadFootprint
readFootprint(Read read)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    ReadFootprint fp;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(3 * kPageSize);
        const Addr off =
            roundUp(c.address + 1, kPageSize) - 100 - c.address;
        read(ctx, c, off, std::size_t{1000});
        fp.clock = ctx.now();
        fp.busy = ctx.thread().busyCycles();
        fp.mem = m.memorySystem().totalCounters();
        fp.tlb_hits = m.mmu().tlb(ctx.thread().core()).hits();
        fp.tlb_misses = m.mmu().tlb(ctx.thread().core()).misses();
    });
    m.run();
    return fp;
}

TEST(Mutator, ReadBytesChargesLikeChunkedLoadData)
{
    // readBytes discards what it reads, but must translate and charge
    // exactly like loading the span into a buffer 256 bytes at a time.
    const ReadFootprint got = readFootprint(
        [](Mutator &ctx, const cap::Capability &c, Addr off,
           std::size_t len) { ctx.readBytes(c, off, len); });
    const ReadFootprint want = readFootprint(
        [](Mutator &ctx, const cap::Capability &c, Addr off,
           std::size_t len) {
            ctx.thread().accrue(1); // the capability check
            std::uint8_t buf[256];
            for (std::size_t done = 0; done < len;) {
                const std::size_t n = std::min(len - done, sizeof(buf));
                ctx.machine().mmu().loadData(ctx.thread(),
                                             c.address + off + done, buf,
                                             n);
                done += n;
            }
        });
    EXPECT_GT(want.mem.accesses, 0u);
    EXPECT_EQ(got.clock, want.clock);
    EXPECT_EQ(got.busy, want.busy);
    EXPECT_EQ(got.mem.accesses, want.mem.accesses);
    EXPECT_EQ(got.mem.l1_misses, want.mem.l1_misses);
    EXPECT_EQ(got.mem.bus_reads, want.mem.bus_reads);
    EXPECT_EQ(got.mem.bus_writes, want.mem.bus_writes);
    EXPECT_EQ(got.tlb_hits, want.tlb_hits);
    EXPECT_EQ(got.tlb_misses, want.tlb_misses);
}

TEST(Mutator, ReadBytesWithoutLoadPermissionFaults)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [](Mutator &ctx) {
        const cap::Capability c = ctx.malloc(256);
        const cap::Capability wo = c.andPerms(cap::kPermStore);
        EXPECT_THROW(ctx.readBytes(wo, 0, 128), vm::CapabilityFault);
        ctx.readBytes(c, 0, 128);
    });
    m.run();
}

TEST(Metrics, ThreadBusyAndWallArePlumbed)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kBaseline;
    Machine m(cfg);
    m.spawnMutator("worker", 1u << 3, [](Mutator &ctx) {
        ctx.compute(12345);
        ctx.free(ctx.malloc(64));
    });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GE(metrics.thread_busy.at("worker"), 12345u);
    EXPECT_GE(metrics.wall_cycles, 12345u);
    EXPECT_GT(metrics.allocator.allocs, 0u);
    EXPECT_FALSE(metrics.summary().empty());
}

// ---------------------------------------------------------------- //
// Reloaded configuration matrix, audited
// ---------------------------------------------------------------- //

struct ReloadedConfig
{
    bool clean_detect;
    bool always_trap;
    unsigned sweepers;
};

class ReloadedMatrixTest
    : public ::testing::TestWithParam<ReloadedConfig>
{
};

void
matrixChurn(Machine &m, Mutator &ctx, int iters)
{
    std::vector<cap::Capability> live;
    auto &rng = ctx.rng();
    for (int i = 0; i < iters; ++i) {
        if (rng.uniform() < 0.5 || live.size() < 8) {
            live.push_back(ctx.malloc(16u << rng.below(8)));
            ctx.store64(live.back(), 0, i);
        } else {
            const auto idx = rng.below(live.size());
            ctx.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
        if (live.size() > 1 && rng.chance(0.3)) {
            const auto a = rng.below(live.size());
            const auto b = rng.below(live.size());
            if (live[a].length() >= 32) {
                ctx.storeCap(live[a], 16, live[b]);
                const cap::Capability p = ctx.loadCap(live[a], 16);
                if (p.tag)
                    ctx.load64(p, 0);
            }
        }
    }
    for (auto &c : live)
        ctx.free(c);
    m.heap().drain(ctx.thread());
}

TEST_P(ReloadedMatrixTest, ChurnHoldsInvariantUnderAudit)
{
    const ReloadedConfig &p = GetParam();
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.reloaded_clean_detect = p.clean_detect;
    cfg.always_trap_clean = p.always_trap;
    cfg.background_sweepers = p.sweepers;
    if (p.sweepers > 1)
        cfg.revoker_core_mask = (1u << 1) | (1u << 2);
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        matrixChurn(m, ctx, 2500);
    });
    m.run();
    const auto metrics = m.metrics();
    EXPECT_GT(metrics.epochs.size(), 2u);
    EXPECT_GT(metrics.sweep.caps_revoked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ReloadedMatrixTest,
    ::testing::Values(ReloadedConfig{true, false, 1},
                      ReloadedConfig{false, false, 1},
                      ReloadedConfig{true, true, 1},
                      ReloadedConfig{true, false, 2},
                      ReloadedConfig{true, true, 2}),
    [](const ::testing::TestParamInfo<ReloadedConfig> &info) {
        std::string n;
        n += info.param.clean_detect ? "detect" : "nodetect";
        n += info.param.always_trap ? "_trap" : "_gen";
        n += "_s" + std::to_string(info.param.sweepers);
        return n;
    });

/**
 * §7.6 through the library API: the three libquantum configurations
 * of ablation_clean_page_policy (no-detect, detect, detect with
 * always-trap). On a few huge pointer-free arrays, always-trap stops
 * refreshing clean pages' generations, so it saves most TLB
 * shootdowns and pays with first-touch barrier faults; clean-page
 * detection never costs sweeps.
 */
TEST(CleanPagePolicy, AlwaysTrapTradesShootdownsForFaults)
{
    auto run = [](bool detect, bool always_trap) {
        MachineConfig cfg;
        cfg.strategy = Strategy::kReloaded;
        cfg.policy = workload::specPolicy();
        cfg.reloaded_clean_detect = detect;
        cfg.always_trap_clean = always_trap;
        Machine m(cfg);
        workload::runSpec(m, workload::specProfile("libquantum"));
        return m.metrics();
    };
    const auto no_detect = run(false, false);
    const auto detect = run(true, false);
    const auto trap = run(true, true);

    EXPECT_GE(detect.mmu.tlb_shootdowns, 5 * trap.mmu.tlb_shootdowns);
    EXPECT_GT(trap.mmu.load_barrier_faults, 0u);
    EXPECT_LE(detect.sweep.pages_swept, no_detect.sweep.pages_swept);
}

// ---------------------------------------------------------------- //
// Multi-threaded mutators sharing the heap (the gRPC shape), audited
// ---------------------------------------------------------------- //

TEST(MultiThreaded, TwoMutatorsShareHeapSafely)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.revoker_core_mask = (1u << 2) | (1u << 3);
    Machine m(cfg);
    for (int id = 0; id < 2; ++id) {
        m.spawnMutator("worker" + std::to_string(id),
                       (1u << 2) | (1u << 3), [&m](Mutator &ctx) {
            matrixChurn(m, ctx, 1200);
        });
    }
    m.run();
    EXPECT_GT(m.metrics().epochs.size(), 0u);
}

TEST(MultiThreaded, RevokerQuantumScaleIsApplied)
{
    // §7.7: a smaller revoker quantum must not break correctness.
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 8 * 1024;
    cfg.revoker_core_mask = 1u << 3; // contend with the app
    cfg.revoker_quantum_scale = 0.1;
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&m](Mutator &ctx) {
        matrixChurn(m, ctx, 1500);
    });
    m.run();
    EXPECT_GT(m.metrics().epochs.size(), 0u);
}

// ---------------------------------------------------------------- //
// Host footprint
// ---------------------------------------------------------------- //

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** This process's resident set in KiB (VmRSS), or -1 if unreadable. */
long
residentKib()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stol(line.substr(6));
    return -1;
}

/**
 * A machine's host structures span the simulated address window (the
 * allocator's page and live-granule tables, the shadow summaries, a
 * deep stack per simulated thread), but only the pages a run writes
 * may cost host memory (DESIGN.md §14.4). A zero-filled window costs
 * over 11 MB for the machine and 4 MiB per thread.
 */
TEST(HostFootprint, MachineCommitsOnlyThePagesItsRunWrites)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer shadow memory makes RSS meaningless";
    const long before = residentKib();
    ASSERT_GT(before, 0);
    Machine m(MachineConfig{});
    for (unsigned i = 0; i < 16; ++i)
        m.spawnMutator("t" + std::to_string(i), 1u << (i % 4),
                       [](Mutator &ctx) {
                           for (int k = 0; k < 8; ++k)
                               ctx.free(ctx.malloc(64));
                       });
    m.run();
    const long grown = residentKib() - before;
    EXPECT_LT(grown, 4 * 1024) << "machine and 16 threads grew RSS by "
                               << grown << " KiB";
}

} // namespace
} // namespace crev
