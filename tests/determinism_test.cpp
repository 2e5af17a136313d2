/**
 * @file
 * The observer determinism contract: the off-clock observers (the
 * event tracer, the race checker, the temporal-safety oracle) must
 * never change a single simulated number. Every strategy is run with
 * each observer on and off, and the complete RunMetrics fingerprint
 * (tests/fingerprint.h) must match byte for byte, both on a SPEC-like
 * profile and under a chaos plan with fault injection and the
 * invariant audit enabled. tests/golden_test.cpp pins the
 * observer-free fingerprints to a checked-in table.
 */

#include <gtest/gtest.h>

#include <string>

#include "fingerprint.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::RunMetrics;
using core::Strategy;
using test::fingerprint;

RunMetrics
runSpecObserved(Strategy s, bool trace, bool check, bool oracle)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.trace = trace;
    cfg.check = check;
    cfg.oracle = oracle;
    Machine m(cfg);
    workload::runSpec(m, workload::specProfile("hmmer_retro"));
    return m.metrics();
}

/** Tracing charges zero simulated cycles: the complete RunMetrics
 *  fingerprint is bit-identical with the tracer on or off, for every
 *  strategy (the whole suite also passes under CREV_TRACE=1, which
 *  turns tracing on in every other test's machines too). */
TEST(Determinism, TracingPreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies)
        EXPECT_EQ(fingerprint(runSpecObserved(s, true, false, false)),
                  fingerprint(runSpecObserved(s, false, false, false)))
            << "strategy " << core::strategyName(s);
}

/** The temporal-safety oracle is an off-clock observer like the
 *  tracer: every simulated observable must be bit-identical with the
 *  oracle on or off, for every strategy. (Its own totals — loads
 *  checked, violations — are excluded from the fingerprint.) */
TEST(Determinism, OraclePreservesSpecMetricsAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        const RunMetrics on = runSpecObserved(s, false, false, true);
        EXPECT_EQ(on.oracle_violations, 0u)
            << "strategy " << core::strategyName(s);
        const RunMetrics off = runSpecObserved(s, false, false, false);
        EXPECT_EQ(off.oracle_loads_checked, 0u);
        EXPECT_EQ(fingerprint(on), fingerprint(off))
            << "strategy " << core::strategyName(s);
    }
}

/** Tracer and race checker attached together must still match the
 *  bare run: both are off-clock, so the combination cannot move a
 *  single scheduling point. */
TEST(Determinism, ObserversTogetherMatchBareRun)
{
    for (Strategy s : {Strategy::kCornucopia, Strategy::kReloaded})
        EXPECT_EQ(fingerprint(runSpecObserved(s, true, true, false)),
                  fingerprint(runSpecObserved(s, false, false, false)))
            << "strategy " << core::strategyName(s);
}

TEST(Determinism, OraclePreservesChaosMetricsAllStrategies)
{
    // The oracle rides a full chaos campaign (every fault domain
    // armed, audit on) without perturbing one scheduling point — and
    // reports zero violations even while recovery paths run hot.
    for (Strategy s : core::kAllStrategies) {
        MachineConfig cfg = test::chaosConfig(s);
        cfg.oracle = true;
        const RunMetrics on = test::runChaos(cfg);
        cfg.oracle = false;
        const RunMetrics off = test::runChaos(cfg);
        EXPECT_EQ(on.oracle_violations, 0u)
            << "strategy " << core::strategyName(s);
        EXPECT_EQ(fingerprint(on), fingerprint(off))
            << "strategy " << core::strategyName(s);
    }
}

/** Per-core allocator sharding (DESIGN.md §15): the cross-core churn
 *  must actually drive the remote-dealloc path once the heap is
 *  sharded — and never in the single-heap model. Each shard count's
 *  full fingerprint is pinned by golden_test's xcore-a* rows. */
TEST(Determinism, AllocShardingDrivesRemoteFreesOnlyWhenSharded)
{
    for (Strategy s : core::kAllStrategies) {
        for (unsigned ac : {1u, 2u, 4u}) {
            const RunMetrics m =
                test::runCrossCore(test::crossCoreConfig(s, ac, false));
            if (ac == 1)
                EXPECT_EQ(m.quarantine.remote_free_sends, 0u)
                    << "strategy " << core::strategyName(s);
            else
                EXPECT_GT(m.quarantine.remote_free_sends, 0u)
                    << "strategy " << core::strategyName(s)
                    << " alloc_cores " << ac;
        }
    }
}

} // namespace
} // namespace crev
