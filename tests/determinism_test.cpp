/**
 * @file
 * The host-lever determinism contract: host-side fast paths
 * (translation/frame caches, packed tag-nibble sweeps, the shadow
 * bitmap shortcut), sweep acceleration, the SIMD kernel level, the
 * scheduler engine, and the off-clock observers must never change a
 * single simulated number. Every strategy is run with each lever on
 * and off, and the complete RunMetrics fingerprint (tests/
 * fingerprint.h) must match byte for byte, both on a SPEC-like profile
 * and under a chaos plan with fault injection and the invariant audit
 * enabled. tests/golden_test.cpp pins the same fingerprints to a
 * checked-in table.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "base/simd.h"
#include "fingerprint.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::RunMetrics;
using core::Strategy;
using test::fingerprint;

RunMetrics
runSpecWith(Strategy s, bool host_fast_paths)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.host_fast_paths = host_fast_paths;
    Machine m(cfg);
    workload::runSpec(m, workload::specProfile("hmmer_retro"));
    return m.metrics();
}

RunMetrics
runSpecEngine(Strategy s, unsigned par_cores, bool trace = false,
              bool check = false)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.par_cores = par_cores;
    cfg.trace = trace;
    cfg.check = check;
    Machine m(cfg);
    workload::runSpec(m, workload::specProfile("hmmer_retro"));
    return m.metrics();
}

TEST(Determinism, FastPathsPreserveSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        const std::string fast =
            fingerprint(runSpecWith(s, true));
        const std::string reference =
            fingerprint(runSpecWith(s, false));
        EXPECT_EQ(fast, reference)
            << "strategy " << core::strategyName(s);
    }
}

/** The sweep-acceleration layers (two-level summary skips, the
 *  capability-dirty page indexes, the pre-scan pipeline) are pure
 *  host-side levers too: RunMetrics must be bit-identical with
 *  cfg.sweep_accel on and off, for every strategy. Set explicitly so
 *  the test is independent of CREV_SWEEP_ACCEL in the environment. */
TEST(Determinism, SweepAccelPreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        std::string fp[2];
        for (int accel = 0; accel < 2; ++accel) {
            MachineConfig cfg;
            cfg.strategy = s;
            cfg.policy = workload::specPolicy();
            cfg.sweep_accel = accel != 0;
            Machine m(cfg);
            workload::runSpec(m, workload::specProfile("hmmer_retro"));
            fp[accel] = fingerprint(m.metrics());
        }
        EXPECT_EQ(fp[1], fp[0])
            << "strategy " << core::strategyName(s);
    }
}

/** The SIMD kernel level (DESIGN.md §17.1) is a pure host dispatch
 *  concern: CREV_SIMD=0 forces the scalar fallbacks everywhere (the
 *  tag-word counts, the shadow bitmap's span paints), and RunMetrics
 *  must not move — for every strategy, serial and lockstep. This is
 *  the in-process twin of CI's forced-scalar bench leg. */
TEST(Determinism, ScalarKernelsPreserveSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        for (unsigned par_cores : {0u, 1u}) {
            std::string fp[2];
            for (int scalar = 0; scalar < 2; ++scalar) {
                if (scalar != 0)
                    setenv("CREV_SIMD", "0", 1);
                else
                    unsetenv("CREV_SIMD");
                simd::refreshFromEnv();
                MachineConfig cfg;
                cfg.strategy = s;
                cfg.policy = workload::specPolicy();
                cfg.par_cores = par_cores;
                Machine m(cfg);
                workload::runSpec(m,
                                  workload::specProfile("hmmer_retro"));
                fp[scalar] = fingerprint(m.metrics());
            }
            unsetenv("CREV_SIMD");
            simd::refreshFromEnv();
            EXPECT_EQ(fp[1], fp[0])
                << "strategy " << core::strategyName(s)
                << " par_cores " << par_cores;
        }
    }
}

/** Tracing charges zero simulated cycles: the complete RunMetrics
 *  fingerprint is bit-identical with the tracer on or off, for every
 *  strategy (the whole suite also passes under CREV_TRACE=1, which
 *  turns tracing on in every other test's machines too). */
TEST(Determinism, TracingPreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy = workload::specPolicy();

        cfg.trace = true;
        Machine on(cfg);
        workload::runSpec(on, workload::specProfile("hmmer_retro"));

        cfg.trace = false;
        Machine off(cfg);
        workload::runSpec(off, workload::specProfile("hmmer_retro"));

        EXPECT_EQ(fingerprint(on.metrics()),
                  fingerprint(off.metrics()))
            << "strategy " << core::strategyName(s);
    }
}

/** The temporal-safety oracle is an off-clock observer like the
 *  tracer: every simulated observable must be bit-identical with the
 *  oracle on or off, for every strategy. (Its own totals — loads
 *  checked, violations — are excluded from the fingerprint, exactly
 *  like the host-side prescan counters.) */
TEST(Determinism, OraclePreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy = workload::specPolicy();

        cfg.oracle = true;
        Machine on(cfg);
        workload::runSpec(on, workload::specProfile("hmmer_retro"));
        EXPECT_EQ(on.metrics().oracle_violations, 0u)
            << "strategy " << core::strategyName(s);

        cfg.oracle = false;
        Machine off(cfg);
        workload::runSpec(off, workload::specProfile("hmmer_retro"));
        EXPECT_EQ(off.metrics().oracle_loads_checked, 0u);

        EXPECT_EQ(fingerprint(on.metrics()),
                  fingerprint(off.metrics()))
            << "strategy " << core::strategyName(s);
    }
}

/** The lockstep engine (DESIGN.md §14) is a pure host-side execution
 *  lever like host_fast_paths: every simulated observable must be
 *  bit-identical between the serial token engine (par_cores = 0, the
 *  reference) and the lockstep engine. */
TEST(Determinism, LockstepEnginePreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies)
        EXPECT_EQ(fingerprint(runSpecEngine(s, 1)),
                  fingerprint(runSpecEngine(s, 0)))
            << "strategy " << core::strategyName(s);
}

/** Observers (tracer + race checker) attached under the lockstep
 *  engine must still match the bare serial engine: both are off-clock
 *  in both engines, so the four-way configuration change cannot move
 *  a single scheduling point. */
TEST(Determinism, LockstepEngineWithObserversMatchesBareSerial)
{
    for (Strategy s : {Strategy::kCornucopia, Strategy::kReloaded}) {
        const std::string bare_serial =
            fingerprint(runSpecEngine(s, 0, false, false));
        const std::string observed_lockstep =
            fingerprint(runSpecEngine(s, 1, true, true));
        EXPECT_EQ(observed_lockstep, bare_serial)
            << "strategy " << core::strategyName(s);
    }
}

/** Fiber execution mode (DESIGN.md §14.5) is purely a host mechanism
 *  for running simulated threads: CREV_FIBERS=0 forces the lockstep
 *  engine onto real host threads, and the fingerprint must not move.
 *  (On builds without fiber support both runs take the host-thread
 *  path and the test is a tautology — still worth keeping as an env
 *  plumbing check.) */
TEST(Determinism, FiberModePreservesSpecMetrics)
{
    const std::string with_fibers =
        fingerprint(runSpecEngine(Strategy::kReloaded, 1));
    setenv("CREV_FIBERS", "0", 1);
    const std::string host_threads =
        fingerprint(runSpecEngine(Strategy::kReloaded, 1));
    unsetenv("CREV_FIBERS");
    EXPECT_EQ(host_threads, with_fibers);
}

RunMetrics
runChaosWith(Strategy s, bool host_fast_paths,
             bool sweep_accel = true, bool oracle = false,
             int par_cores = -1)
{
    MachineConfig cfg = test::chaosConfig(s);
    cfg.host_fast_paths = host_fast_paths;
    cfg.sweep_accel = sweep_accel;
    cfg.oracle = oracle;
    if (par_cores >= 0)
        cfg.par_cores = static_cast<unsigned>(par_cores);
    return test::runChaos(cfg);
}

TEST(Determinism, FastPathsPreserveChaosMetricsAllStrategies)
{
    // Fault injection plus the per-epoch audit: the fast paths must
    // not perturb a single scheduling point even when the run leans on
    // the watchdog's recovery ladder.
    for (Strategy s : core::kAllStrategies) {
        const std::string fast =
            fingerprint(runChaosWith(s, true));
        const std::string reference =
            fingerprint(runChaosWith(s, false));
        EXPECT_EQ(fast, reference)
            << "strategy " << core::strategyName(s);
    }
}

/** Chaos campaign with the dispatched kernels toggled (DESIGN.md
 *  §17.1): fault injection, recovery ladders, and the per-epoch audit
 *  must see the exact same virtual history either way. */
TEST(Determinism, ScalarKernelsPreserveChaosMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        const std::string dispatched =
            fingerprint(runChaosWith(s, true));
        setenv("CREV_SIMD", "0", 1);
        simd::refreshFromEnv();
        const std::string scalar = fingerprint(runChaosWith(s, true));
        unsetenv("CREV_SIMD");
        simd::refreshFromEnv();
        EXPECT_EQ(scalar, dispatched)
            << "strategy " << core::strategyName(s);
    }
}

TEST(Determinism, SweepAccelPreservesChaosMetricsAllStrategies)
{
    // Same chaos campaign, toggling only the sweep-acceleration
    // layers. The per-epoch audit is on, so the Auditor's summary
    // consistency cross-check runs in both configurations; degraded
    // epochs exercise the emergency sweep's unaccelerated page walk.
    for (Strategy s : core::kAllStrategies) {
        const std::string accel =
            fingerprint(runChaosWith(s, true, true));
        const std::string plain =
            fingerprint(runChaosWith(s, true, false));
        EXPECT_EQ(accel, plain)
            << "strategy " << core::strategyName(s);
    }
}

/** Producer/consumer churn where the bulk of frees happen on a
 *  different core than the allocation, driving the remote-dealloc
 *  message queues (DESIGN.md §15). Exactly one simulated thread runs
 *  at a time, so the shared host-side queue needs no host locking and
 *  hand-off order is fully scheduler-determined. */
void
crossCoreChurn(Machine &m, int iters)
{
    auto queue = std::make_shared<std::vector<cap::Capability>>();
    auto produced = std::make_shared<int>(0);
    m.spawnMutator("prod", 1u << 0, [=](Mutator &ctx) {
        for (int i = 0; i < iters; ++i) {
            const std::size_t size = 16 << ctx.rng().below(6);
            cap::Capability c = ctx.malloc(size);
            ctx.store64(c, 0, static_cast<std::uint64_t>(i));
            queue->push_back(c);
            ++*produced;
            ctx.compute(150);
            if (i % 8 == 0) // every eighth object dies locally
                ctx.free(ctx.malloc(96));
        }
    });
    m.spawnMutator("cons", 1u << 1, [=, &m](Mutator &ctx) {
        std::size_t taken = 0;
        while (taken < static_cast<std::size_t>(iters)) {
            if (taken < queue->size()) {
                // Copy out: free() yields, and the producer's
                // push_back may reallocate the vector meanwhile.
                const cap::Capability c = queue->at(taken);
                ctx.load64(c, 0); // touch before free
                ctx.free(c);
                ++taken;
                ctx.compute(120);
            } else {
                ctx.compute(400); // producer behind; spin virtually
            }
        }
        m.heap().drain(ctx.thread());
    });
}

RunMetrics
runCrossCore(Strategy s, unsigned alloc_cores, unsigned par_cores,
             bool chaos)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.policy.min_bytes = 32 * 1024;
    cfg.alloc_cores = alloc_cores;
    cfg.par_cores = par_cores;
    cfg.seed = 7;
    if (chaos) {
        cfg.audit = true;
        cfg.background_sweepers = 2;
        cfg.faults.enabled = true;
        cfg.faults.seed = 909;
        cfg.faults.sweeper_stall_prob = 0.05;
        cfg.faults.sweeper_stall_cycles = 250'000;
        cfg.faults.fault_drop_prob = 0.10;
        cfg.faults.max_fault_drops = 4;
        cfg.faults.stw_delay_prob = 0.25;
        cfg.faults.stw_delay_cycles = 25'000;
        cfg.faults.shootdown_drop_prob = 0.2;
        cfg.faults.summary_corrupt_prob = 0.25;
        cfg.faults.quarantine_drop_prob = 0.25;
        cfg.faults.quarantine_duplicate_prob = 0.25;
    }
    Machine m(cfg);
    crossCoreChurn(m, 300);
    m.run();
    return m.metrics();
}

/** The tentpole contract (DESIGN.md §15): per-core allocator
 *  sharding is a simulated-topology choice, and for each shard count
 *  the serial token engine and the lockstep engine must agree on
 *  every simulated observable — with cross-core remote frees in
 *  flight. alloc_cores = 1 is the single-heap reference model. */
TEST(Determinism, AllocShardingPreservesSpecMetricsAcrossEngines)
{
    for (Strategy s : core::kAllStrategies) {
        for (unsigned ac : {1u, 2u, 4u}) {
            const RunMetrics serial_m = runCrossCore(s, ac, 0, false);
            const std::string serial = fingerprint(serial_m);
            const std::string lockstep =
                fingerprint(runCrossCore(s, ac, 1, false));
            EXPECT_EQ(lockstep, serial)
                << "strategy " << core::strategyName(s)
                << " alloc_cores " << ac;
            // The workload must actually drive the remote-dealloc
            // path once sharded — and never in the reference model.
            if (ac == 1)
                EXPECT_EQ(serial_m.quarantine.remote_free_sends, 0u);
            else
                EXPECT_GT(serial_m.quarantine.remote_free_sends, 0u)
                    << "strategy " << core::strategyName(s)
                    << " alloc_cores " << ac;
        }
    }
}

/** Same engine equivalence with every fault domain armed and the
 *  audit on: chaos-injected recovery paths must not perturb the
 *  remote-dealloc queues' drain order either. */
TEST(Determinism, AllocShardingPreservesChaosMetricsAcrossEngines)
{
    for (Strategy s : core::kAllStrategies) {
        for (unsigned ac : {1u, 2u, 4u}) {
            const std::string serial =
                fingerprint(runCrossCore(s, ac, 0, true));
            const std::string lockstep =
                fingerprint(runCrossCore(s, ac, 1, true));
            EXPECT_EQ(lockstep, serial)
                << "strategy " << core::strategyName(s)
                << " alloc_cores " << ac;
        }
    }
}

TEST(Determinism, OraclePreservesChaosMetricsAllStrategies)
{
    // The oracle rides a full chaos campaign (every fault domain
    // armed, audit on) without perturbing one scheduling point — and
    // reports zero violations even while recovery paths run hot.
    for (Strategy s : core::kAllStrategies) {
        const RunMetrics on = runChaosWith(s, true, true, true);
        const RunMetrics off = runChaosWith(s, true, true, false);
        EXPECT_EQ(on.oracle_violations, 0u)
            << "strategy " << core::strategyName(s);
        EXPECT_EQ(fingerprint(on), fingerprint(off))
            << "strategy " << core::strategyName(s);
    }
}

} // namespace
} // namespace crev
