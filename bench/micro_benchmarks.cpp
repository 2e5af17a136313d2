/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths:
 * capability compression, bitmap painting, page sweeping, cache
 * accesses, the memory hierarchy's line walk, address translation,
 * capability loads, the fiber switch, and the simulated allocator. These
 * measure *host* performance of the simulator itself (how fast
 * experiments run), complementing the figure/table binaries which
 * measure *simulated* behaviour.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "cap/compression.h"
#include "core/machine.h"
#include "core/mutator.h"
#include "mem/cache.h"
#include "mem/memory_system.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"
#include "workload/spec.h"

namespace {

using namespace crev;

void
BM_CapEncodeDecode(benchmark::State &state)
{
    Rng rng(1);
    std::vector<cap::Capability> caps;
    for (int i = 0; i < 256; ++i) {
        const Addr len = 16 + rng.below(1 << 16);
        const Addr base = roundUp(0x4000'0000 + rng.below(1u << 28),
                                  cap::representableAlignment(len));
        cap::Capability c;
        c.base = base;
        c.top = base + cap::representableLength(len);
        c.address = base;
        c.tag = true;
        caps.push_back(c);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const cap::CapBits bits = cap::encode(caps[i & 255]);
        benchmark::DoNotOptimize(cap::decode(bits, true));
        ++i;
    }
}
BENCHMARK(BM_CapEncodeDecode);

/**
 * Run @p body on the one mutator of a baseline machine, handing it the
 * MMU, the mutator's thread and a fresh reservation of @p pages pages.
 */
template <typename Body>
void
onBaselineMmu(std::size_t pages, Body body)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline;
    core::Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        body(m.mmu(), ctx.thread(),
             m.addressSpace().reserve(pages * kPageSize));
    });
    m.run();
}

/** Host ns per call of @p access(i), over @p n calls. */
template <typename Access>
double
hostNsPerCall(std::uint64_t n, Access access)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        access(i);
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() / static_cast<double>(n);
}

/**
 * Host cost of one simulated access to a cache of geometry @p cfg:
 * random lines over @p span bytes, 30% of them writes. The address and
 * write streams are drawn before the timed loop, so the RNG is not
 * measured.
 */
void
cacheAccess(benchmark::State &state, const mem::CacheConfig &cfg,
            Addr span)
{
    constexpr std::uint64_t kAccesses = 1u << 21;
    Rng rng(2);
    std::vector<Addr> addrs(kAccesses);
    std::vector<std::uint8_t> writes(kAccesses);
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
        addrs[i] = rng.below(span);
        writes[i] = rng.chance(0.3) ? 1 : 0;
    }
    mem::Cache cache(cfg);
    std::uint64_t misses = 0;
    const double ns = hostNsPerCall(kAccesses, [&](std::uint64_t i) {
        misses += cache.access(addrs[i], writes[i] != 0).hit ? 0 : 1;
    });
    for (auto _ : state)
        benchmark::DoNotOptimize(ns);
    state.counters["host_ns_per_access"] = ns;
    state.counters["miss_ratio"] =
        static_cast<double>(misses) / static_cast<double>(kAccesses);
}

void
BM_CacheAccess(benchmark::State &state)
{
    // The L1 geometry, over 32x its size.
    cacheAccess(state, mem::CacheConfig{32 * 1024, 4}, 1 << 20);
}
BENCHMARK(BM_CacheAccess)->Iterations(1);

void
BM_CacheAccessLlc(benchmark::State &state)
{
    // The LLC geometry, over 8x its size.
    cacheAccess(state, mem::CacheConfig{1 << 20, 8}, 8 << 20);
}
BENCHMARK(BM_CacheAccessLlc)->Iterations(1);

/**
 * Host cost per line of MemorySystem::access on traffic shaped like a
 * revoking run, at pgbench's 16 KiB/4-way L1 and 128 KiB/8-way LLC:
 * core 2 reads the heap's pages whole, one 64-byte line per access,
 * while core 3 makes 8-, 16- and 256-byte accesses anywhere in the
 * 1 MiB heap, about a third of them writes. The two streams alternate
 * and are drawn before the timed loop.
 */
void
BM_MemorySystemSweepStream(benchmark::State &state)
{
    struct Op
    {
        Addr paddr;
        std::uint32_t len;
        std::uint8_t core;
        bool write;
    };
    constexpr std::uint64_t kOps = 1u << 20;
    constexpr Addr kHeapBytes = 1 << 20;
    constexpr Addr kHeapBase = Addr{64} << kPageBits;
    constexpr std::uint32_t kAppLens[] = {8, 16, 256};
    Rng rng(3);
    std::vector<Op> ops(kOps);
    Addr sweep_line = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        if (i % 2 == 0) {
            ops[i] = Op{kHeapBase + sweep_line * kLineSize, kLineSize, 2,
                        false};
            sweep_line = (sweep_line + 1) % (kHeapBytes / kLineSize);
        } else {
            const Addr off = rng.below(kHeapBytes - 256) & ~Addr{7};
            ops[i] = Op{kHeapBase + off, kAppLens[rng.below(3)], 3,
                        rng.below(3) == 0};
        }
    }
    mem::MemorySystem ms(4, mem::CacheConfig{16 * 1024, 4},
                         mem::CacheConfig{128 * 1024, 8},
                         mem::MemLatency{});
    const double ns_per_op = hostNsPerCall(kOps, [&](std::uint64_t i) {
        const Op &op = ops[i];
        benchmark::DoNotOptimize(
            ms.access(op.core, op.paddr, op.len, op.write));
    });
    for (auto _ : state)
        benchmark::DoNotOptimize(ns_per_op);
    const mem::MemCounters total = ms.totalCounters();
    state.counters["host_ns_per_line"] =
        ns_per_op * static_cast<double>(kOps) /
        static_cast<double>(total.accesses);
    state.counters["l1_miss_ratio"] =
        static_cast<double>(total.l1_misses) /
        static_cast<double>(total.accesses);
}
BENCHMARK(BM_MemorySystemSweepStream)->Iterations(1);

void
BM_Translate(benchmark::State &state)
{
    // Host cost of a simulated data load whose translation misses the
    // TLB. The loads stride one page at a time over four times the
    // TLB's 128 entries, so FIFO replacement makes every access walk
    // the page table (walks_per_access reports it).
    constexpr std::size_t kPages = 512;
    constexpr std::uint64_t kAccesses = 1u << 21;
    double ns = 0;
    double walks = 0;
    onBaselineMmu(kPages, [&](vm::Mmu &mmu, sim::SimThread &t, Addr base) {
        for (std::size_t p = 0; p < kPages; ++p)
            mmu.storeU64(t, base + p * kPageSize, p); // demand-fault
        const std::uint64_t misses = mmu.tlb(t.core()).misses();
        ns = hostNsPerCall(kAccesses, [&](std::uint64_t i) {
            benchmark::DoNotOptimize(
                mmu.loadU64(t, base + (i % kPages) * kPageSize));
        });
        walks = static_cast<double>(mmu.tlb(t.core()).misses() - misses) /
                static_cast<double>(kAccesses);
    });
    for (auto _ : state)
        benchmark::DoNotOptimize(ns);
    state.counters["host_ns_per_access"] = ns;
    state.counters["walks_per_access"] = walks;
}
BENCHMARK(BM_Translate)->Iterations(1);

void
BM_LoadCap(benchmark::State &state)
{
    // Host cost of a tagged capability load through the load barrier
    // (current generation, so it never traps): every granule of 16
    // TLB-resident pages holds a capability, loaded in order.
    constexpr std::size_t kPages = 16;
    constexpr std::uint64_t kGranules = kPages * kPageSize / kGranuleSize;
    constexpr std::uint64_t kAccesses = 1u << 21;
    double ns = 0;
    onBaselineMmu(kPages, [&](vm::Mmu &mmu, sim::SimThread &t, Addr base) {
        const cap::Capability c = cap::Capability::root(base, base + 64);
        for (std::uint64_t g = 0; g < kGranules; ++g)
            mmu.storeCap(t, base + g * kGranuleSize, c);
        ns = hostNsPerCall(kAccesses, [&](std::uint64_t i) {
            benchmark::DoNotOptimize(
                mmu.loadCap(t, base + (i % kGranules) * kGranuleSize));
        });
    });
    for (auto _ : state)
        benchmark::DoNotOptimize(ns);
    state.counters["host_ns_per_access"] = ns;
}
BENCHMARK(BM_LoadCap)->Iterations(1);

void
BM_FiberSwitch(benchmark::State &state)
{
    // Host cost of one token handoff between two simulated threads on
    // one core: each accrues a cycle and yields, so every yield picks
    // the other thread and switches stacks. A switch is the whole
    // handoff (the scheduler's pick and the stack switch).
    constexpr std::uint64_t kRounds = 1u << 20;
    sim::Scheduler s(1, sim::CostModel{});
    std::uint64_t switches = 0;
    const sim::SimThread *last = nullptr;
    for (int i = 0; i < 2; ++i)
        s.spawn("t" + std::to_string(i), 1, [&](sim::SimThread &t) {
            last = &t;
            for (std::uint64_t r = 0; r < kRounds; ++r) {
                t.accrueNoYield(1);
                t.yieldNow();
                if (last != &t)
                    ++switches;
                last = &t;
            }
        });
    const auto start = std::chrono::steady_clock::now();
    s.run();
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    for (auto _ : state)
        benchmark::DoNotOptimize(switches);
    state.counters["host_ns_per_switch"] =
        elapsed.count() / static_cast<double>(switches);
    state.counters["switches"] = static_cast<double>(switches);
}
BENCHMARK(BM_FiberSwitch)->Iterations(1);

void
BM_SimulatedMallocFree(benchmark::State &state)
{
    // Host cost of one simulated malloc+free round trip (baseline
    // machine, no revocation).
    const auto total = static_cast<std::uint64_t>(state.max_iterations);
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline;
    core::Machine m(cfg);
    std::uint64_t done = 0;
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        for (std::uint64_t i = 0; i < total; ++i) {
            auto c = ctx.malloc(64);
            ctx.free(c);
            ++done;
        }
    });
    // Drive the machine manually inside the timing loop.
    auto start = std::chrono::steady_clock::now();
    m.run();
    auto elapsed = std::chrono::steady_clock::now() - start;
    const double per_iter =
        std::chrono::duration<double>(elapsed).count() /
        static_cast<double>(total);
    for (auto _ : state) {
        // Report the measured per-op cost for each iteration.
        benchmark::DoNotOptimize(done);
    }
    state.SetIterationTime(per_iter);
    state.counters["sim_alloc_free_ns"] = per_iter * 1e9;
}
BENCHMARK(BM_SimulatedMallocFree)->Iterations(100000);

void
BM_SweepThroughput(benchmark::State &state)
{
    // Pages swept per host-second under Reloaded on a churn-heavy
    // profile; reported as a counter.
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy = workload::specPolicy();
    core::Machine m(cfg);
    auto profile = workload::specProfile("hmmer_retro");
    auto start = std::chrono::steady_clock::now();
    workload::runSpec(m, profile);
    auto elapsed = std::chrono::steady_clock::now() - start;
    const auto metrics = m.metrics();
    for (auto _ : state)
        benchmark::DoNotOptimize(metrics.sweep.pages_swept);
    state.counters["pages_swept_per_host_sec"] =
        static_cast<double>(metrics.sweep.pages_swept) /
        std::chrono::duration<double>(elapsed).count();
}
BENCHMARK(BM_SweepThroughput)->Iterations(1);

void
BM_SweepPageRegime(benchmark::State &state,
                   benchutil::SweepRegime regime)
{
    // Host cost of sweeping one page, and its simulated cycles.
    const auto r = benchutil::measureSweepRegime(regime);
    for (auto _ : state)
        benchmark::DoNotOptimize(r.pages_swept);
    state.counters["host_ns_per_page"] = r.host_ns_per_page;
    state.counters["sim_cycles_per_page"] = r.sim_cycles_per_page;
}

void
BM_SweepPageClean(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kClean);
}
BENCHMARK(BM_SweepPageClean)->Iterations(1);

void
BM_SweepPageSparse(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kSparse);
}
BENCHMARK(BM_SweepPageSparse)->Iterations(1);

void
BM_SweepPageFull(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kFull);
}
BENCHMARK(BM_SweepPageFull)->Iterations(1);

void
BM_SweepPageRevokeDense(benchmark::State &state)
{
    BM_SweepPageRegime(state, benchutil::SweepRegime::kRevokeDense);
}
BENCHMARK(BM_SweepPageRevokeDense)->Iterations(1);

} // namespace
