/**
 * @file
 * Chaos campaigns: seeded fault plans injected into every strategy,
 * with the whole-machine invariant audit on. Three properties must
 * survive every plan:
 *
 *   1. Temporal safety holds (the per-epoch audit panics otherwise).
 *   2. No mutator blocks forever: the run completes, the epoch
 *      counter rests even, and drain() empties the quarantine — even
 *      when sweepers die or fault completions are lost (the watchdog's
 *      degradation ladder guarantees counter advance).
 *   3. Recovery is deterministic: identical seeds replay identical
 *      fault sequences *and* identical recoveries, byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "fingerprint.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::Mutator;
using core::RunMetrics;
using core::Strategy;

struct Plan
{
    const char *name;
    sim::FaultPlan faults;
    unsigned sweepers = 1;
};

sim::FaultPlan
base(std::uint64_t seed)
{
    sim::FaultPlan p;
    p.enabled = true;
    p.seed = seed;
    return p;
}

/** The campaign: every scenario the harness can express, seeded. */
std::vector<Plan>
allPlans()
{
    std::vector<Plan> plans;

    {
        Plan p{"stall_sweeper", base(101), 2};
        p.faults.sweeper_stall_prob = 0.10;
        p.faults.sweeper_stall_cycles = 100'000;
        plans.push_back(p);
    }
    {
        Plan p{"kill_sweeper", base(202), 3};
        p.faults.sweeper_kill_prob = 0.5;
        p.faults.max_sweeper_kills = 2;
        plans.push_back(p);
    }
    {
        Plan p{"drop_faults", base(303), 1};
        p.faults.fault_drop_prob = 0.5;
        p.faults.max_fault_drops = 8;
        plans.push_back(p);
    }
    {
        Plan p{"duplicate_faults", base(404), 1};
        p.faults.fault_duplicate_prob = 0.3;
        plans.push_back(p);
    }
    {
        Plan p{"stw_delay", base(505), 1};
        p.faults.stw_delay_prob = 1.0;
        p.faults.stw_delay_cycles = 50'000;
        plans.push_back(p);
    }
    {
        Plan p{"mem_spike", base(606), 1};
        p.faults.mem_spike_period = 100'000;
        p.faults.mem_spike_duration = 20'000;
        p.faults.mem_spike_extra = 50;
        plans.push_back(p);
    }
    {
        // A sweeper stall far past the watchdog deadline: recovery
        // must fall all the way back to the emergency STW sweep.
        Plan p{"hard_stall", base(707), 1};
        p.faults.sweeper_stall_prob = 1.0;
        p.faults.sweeper_stall_cycles = 30'000'000;
        p.faults.window_end = 5'000'000;
        plans.push_back(p);
    }
    {
        Plan p{"kill_and_drop", base(808), 3};
        p.faults.sweeper_kill_prob = 0.5;
        p.faults.max_sweeper_kills = 1;
        p.faults.fault_drop_prob = 0.25;
        p.faults.max_fault_drops = 4;
        plans.push_back(p);
    }
    {
        Plan p{"kitchen_sink", base(909), 2};
        p.faults.sweeper_stall_prob = 0.05;
        p.faults.sweeper_stall_cycles = 250'000;
        p.faults.sweeper_kill_prob = 0.10;
        p.faults.max_sweeper_kills = 1;
        p.faults.fault_drop_prob = 0.10;
        p.faults.max_fault_drops = 4;
        p.faults.fault_duplicate_prob = 0.10;
        p.faults.stw_delay_prob = 0.25;
        p.faults.stw_delay_cycles = 25'000;
        p.faults.mem_spike_period = 250'000;
        p.faults.mem_spike_duration = 25'000;
        p.faults.mem_spike_extra = 30;
        plans.push_back(p);
    }
    {
        Plan p{"shootdown_drop", base(1010), 1};
        p.faults.shootdown_drop_prob = 0.4;
        p.faults.max_shootdown_drops = 16;
        plans.push_back(p);
    }
    {
        Plan p{"shootdown_late", base(1111), 1};
        p.faults.shootdown_late_prob = 0.5;
        p.faults.shootdown_late_cycles = 20'000;
        plans.push_back(p);
    }
    {
        // Rolled only at quantum-boundary yields (yieldSlow), which
        // are far rarer than work items — hence the high probability.
        Plan p{"core_stall", base(1212), 1};
        p.faults.core_stall_prob = 0.5;
        p.faults.core_stall_cycles = 200'000;
        p.faults.max_core_stalls = 4;
        plans.push_back(p);
    }
    {
        // Requires cfg.audit (runChaos sets it): corruption is
        // injected at audit entry and must be repaired there too.
        Plan p{"summary_corrupt", base(1313), 1};
        p.faults.summary_corrupt_prob = 0.5;
        p.faults.max_summary_corruptions = 8;
        plans.push_back(p);
    }
    {
        Plan p{"quarantine_drop", base(1414), 1};
        p.faults.quarantine_drop_prob = 0.6;
        p.faults.max_quarantine_drops = 4;
        plans.push_back(p);
    }
    {
        Plan p{"quarantine_duplicate", base(1515), 1};
        p.faults.quarantine_duplicate_prob = 0.5;
        plans.push_back(p);
    }
    {
        // Everything at once, old and new domains together.
        Plan p{"kitchen_sink_v2", base(1616), 2};
        p.faults.sweeper_stall_prob = 0.05;
        p.faults.sweeper_stall_cycles = 250'000;
        p.faults.sweeper_kill_prob = 0.10;
        p.faults.max_sweeper_kills = 1;
        p.faults.fault_drop_prob = 0.10;
        p.faults.max_fault_drops = 4;
        p.faults.fault_duplicate_prob = 0.10;
        p.faults.stw_delay_prob = 0.25;
        p.faults.stw_delay_cycles = 25'000;
        p.faults.mem_spike_period = 250'000;
        p.faults.mem_spike_duration = 25'000;
        p.faults.mem_spike_extra = 30;
        p.faults.shootdown_drop_prob = 0.2;
        p.faults.shootdown_late_prob = 0.2;
        p.faults.shootdown_late_cycles = 10'000;
        p.faults.core_stall_prob = 0.25;
        p.faults.core_stall_cycles = 100'000;
        p.faults.summary_corrupt_prob = 0.25;
        p.faults.quarantine_drop_prob = 0.25;
        p.faults.quarantine_duplicate_prob = 0.25;
        plans.push_back(p);
    }
    return plans;
}

constexpr std::size_t kNumPlans = 16;

struct RunResult
{
    RunMetrics metrics;
    std::uint64_t final_epoch_value = 0;
    std::size_t final_quarantine_bytes = 0;
};

RunResult
runChaos(Strategy s, const Plan &plan, int iters = 1200)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.audit = true;
    cfg.oracle = true; // temporal-safety oracle rides every campaign
    cfg.policy.min_bytes = 32 * 1024; // revoke frequently
    cfg.background_sweepers = plan.sweepers;
    cfg.faults = plan.faults;
    cfg.seed = 42;
    Machine m(cfg);
    RunResult r;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        test::churn(m, ctx, iters);
        r.final_epoch_value = m.kernel().epoch().value();
        r.final_quarantine_bytes = m.heap().quarantineBytes();
    });
    m.run();
    r.metrics = m.metrics();
    return r;
}

/** The fields that must replay byte-identically across same-seed
 *  runs, including every recovery and injection counter. */
std::string
fingerprint(const RunResult &r)
{
    const RunMetrics &m = r.metrics;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s|epoch=%llu|quar=%zu|misses=%llu nudges=%llu reaped=%llu "
        "respawned=%llu recov=%llu stw=%llu emerg=%llu stallt=%llu|"
        "stalls=%llu kills=%llu drops=%llu dups=%llu delays=%llu "
        "sdrops=%llu slates=%llu cstalls=%llu corrupt=%llu "
        "qdrops=%llu qdups=%llu|resend=%llu repairs=%llu "
        "hresend=%llu ereclaim=%llu|oracle=%llu/%llu",
        m.summary().c_str(),
        static_cast<unsigned long long>(r.final_epoch_value),
        r.final_quarantine_bytes,
        static_cast<unsigned long long>(m.recovery.deadline_misses),
        static_cast<unsigned long long>(m.recovery.nudges),
        static_cast<unsigned long long>(m.recovery.sweepers_reaped),
        static_cast<unsigned long long>(m.recovery.sweepers_respawned),
        static_cast<unsigned long long>(m.recovery.recovery_requests),
        static_cast<unsigned long long>(m.recovery.stw_fallbacks),
        static_cast<unsigned long long>(m.recovery.emergency_epochs),
        static_cast<unsigned long long>(m.recovery.stalled_threads),
        static_cast<unsigned long long>(
            m.faults_injected.sweeper_stalls),
        static_cast<unsigned long long>(
            m.faults_injected.sweeper_kills),
        static_cast<unsigned long long>(
            m.faults_injected.faults_dropped),
        static_cast<unsigned long long>(
            m.faults_injected.faults_duplicated),
        static_cast<unsigned long long>(m.faults_injected.stw_delays),
        static_cast<unsigned long long>(
            m.faults_injected.shootdown_drops),
        static_cast<unsigned long long>(
            m.faults_injected.shootdown_lates),
        static_cast<unsigned long long>(m.faults_injected.core_stalls),
        static_cast<unsigned long long>(
            m.faults_injected.summary_corruptions),
        static_cast<unsigned long long>(
            m.faults_injected.quarantine_drops),
        static_cast<unsigned long long>(
            m.faults_injected.quarantine_duplicates),
        static_cast<unsigned long long>(m.mmu.shootdown_resends),
        static_cast<unsigned long long>(m.summary_repairs),
        static_cast<unsigned long long>(m.quarantine.handoff_resends),
        static_cast<unsigned long long>(
            m.quarantine.emergency_reclaims),
        static_cast<unsigned long long>(m.oracle_loads_checked),
        static_cast<unsigned long long>(m.oracle_violations));
    std::string out = buf;
    for (unsigned i = 0; i < trace::kNumRecoveryProtocols; ++i) {
        const auto &p = m.recovery_protocols[i];
        char rp[96];
        std::snprintf(
            rp, sizeof(rp), "|%s=%llu/%llu/%llu/%llu/%llu",
            trace::recoveryProtocolName(
                static_cast<trace::RecoveryProtocol>(i)),
            static_cast<unsigned long long>(p.tickets),
            static_cast<unsigned long long>(p.attempts),
            static_cast<unsigned long long>(p.successes),
            static_cast<unsigned long long>(p.retries_exhausted),
            static_cast<unsigned long long>(p.deadline_expiries));
        out += rp;
    }
    return out;
}

/** One-line deterministic repro for a failed campaign: everything
 *  needed to rebuild the exact (plan, workload) pair by hand. */
std::string
reproLine(Strategy s, const Plan &plan, int iters)
{
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "repro: strategy=%s plan=%s fault_seed=%llu "
        "window=[%llu,%llu) machine_seed=42 iters=%d sweepers=%u",
        core::strategyName(s), plan.name,
        static_cast<unsigned long long>(plan.faults.seed),
        static_cast<unsigned long long>(plan.faults.window_begin),
        static_cast<unsigned long long>(plan.faults.window_end), iters,
        plan.sweepers);
    return buf;
}

/** Where two same-seed runs first came apart: the first divergent
 *  epoch (with the field that differs) or, failing that, the first
 *  divergent fingerprint character. */
std::string
firstDivergence(const RunResult &a, const RunResult &b)
{
    const std::size_t n =
        std::min(a.metrics.epochs.size(), b.metrics.epochs.size());
    for (std::size_t i = 0; i < n; ++i) {
        const auto &ea = a.metrics.epochs[i];
        const auto &eb = b.metrics.epochs[i];
        const char *field = nullptr;
        unsigned long long va = 0, vb = 0;
        if (ea.stw_duration != eb.stw_duration) {
            field = "stw_duration";
            va = ea.stw_duration;
            vb = eb.stw_duration;
        } else if (ea.concurrent_duration != eb.concurrent_duration) {
            field = "concurrent_duration";
            va = ea.concurrent_duration;
            vb = eb.concurrent_duration;
        } else if (ea.fault_count != eb.fault_count) {
            field = "fault_count";
            va = ea.fault_count;
            vb = eb.fault_count;
        } else if (ea.pages_swept != eb.pages_swept) {
            field = "pages_swept";
            va = ea.pages_swept;
            vb = eb.pages_swept;
        } else if (ea.caps_revoked != eb.caps_revoked) {
            field = "caps_revoked";
            va = ea.caps_revoked;
            vb = eb.caps_revoked;
        }
        if (field != nullptr) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          "first-divergence=epoch[%zu].%s (%llu != "
                          "%llu)",
                          i, field, va, vb);
            return buf;
        }
    }
    if (a.metrics.epochs.size() != b.metrics.epochs.size()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "first-divergence=epoch_count (%zu != %zu)",
                      a.metrics.epochs.size(),
                      b.metrics.epochs.size());
        return buf;
    }
    const std::string fa = fingerprint(a);
    const std::string fb = fingerprint(b);
    std::size_t c = 0;
    while (c < fa.size() && c < fb.size() && fa[c] == fb[c])
        ++c;
    char buf[64];
    std::snprintf(buf, sizeof(buf),
                  "first-divergence=fingerprint_char[%zu]", c);
    return buf;
}

class ChaosPlanTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChaosPlanTest, EveryStrategySurvivesWithAuditOn)
{
    const Plan plan = allPlans()[GetParam()];
    for (Strategy s : core::kAllStrategies) {
        SCOPED_TRACE(reproLine(s, plan, 1200));
        const RunResult r = runChaos(s, plan);
        // Liveness: the mutator ran to completion, the quarantine
        // drained, and the epoch counter rests even (no epoch left
        // half-open). Safety was asserted epoch-by-epoch by the audit
        // and cross-checked by the temporal-safety oracle.
        EXPECT_EQ(r.final_epoch_value % 2, 0u);
        EXPECT_EQ(r.final_quarantine_bytes, 0u);
        EXPECT_EQ(r.metrics.oracle_violations, 0u);
        if (s != Strategy::kBaseline) {
            EXPECT_GT(r.metrics.epochs.size(), 0u);
        }
    }
}

TEST_P(ChaosPlanTest, RecoveryReplaysByteIdentically)
{
    const Plan plan = allPlans()[GetParam()];
    // Reloaded exercises every injection point; CheriVoke covers the
    // purely-STW path.
    for (Strategy s : {Strategy::kReloaded, Strategy::kCheriVoke}) {
        SCOPED_TRACE(reproLine(s, plan, 1200));
        const RunResult ra = runChaos(s, plan);
        const RunResult rb = runChaos(s, plan);
        const std::string a = fingerprint(ra);
        const std::string b = fingerprint(rb);
        EXPECT_EQ(a, b) << firstDivergence(ra, rb);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, ChaosPlanTest,
    ::testing::Range<std::size_t>(0, kNumPlans),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(allPlans()[info.param].name);
    });

TEST(ChaosRecovery, KilledSweepersAreReapedAndRespawned)
{
    const auto plans = allPlans();
    const Plan &plan = plans[1]; // kill_sweeper
    ASSERT_STREQ(plan.name, "kill_sweeper");
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.sweeper_kills, 0u)
        << "the plan must actually kill a sweeper";
    // Every kill wedges the epoch's helper drain; the watchdog must
    // have detected the death and repaired the accounting.
    EXPECT_GT(m.recovery.deadline_misses, 0u);
    EXPECT_GT(m.recovery.sweepers_reaped, 0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
}

TEST(ChaosRecovery, DroppedFaultCompletionsDegradeGracefully)
{
    const auto plans = allPlans();
    const Plan &plan = plans[2]; // drop_faults
    ASSERT_STREQ(plan.name, "drop_faults");
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.faults_dropped, 0u)
        << "the plan must actually lose completions";
    // A lost completion leaks faults_in_flight_, so the wedged epochs
    // must have been finished in degraded (emergency STW) mode.
    EXPECT_GT(m.recovery.recovery_requests + m.recovery.stw_fallbacks,
              0u);
    EXPECT_GT(m.degradedEpochs(), 0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
}

TEST(ChaosRecovery, HardStallFallsBackToStopTheWorld)
{
    const auto plans = allPlans();
    const Plan &plan = plans[6]; // hard_stall
    ASSERT_STREQ(plan.name, "hard_stall");
    const RunResult r = runChaos(Strategy::kReloaded, plan);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.sweeper_stalls, 0u);
    // The daemon slept through every rung the watchdog could wake it
    // from; the epoch must have been force-completed by fiat.
    EXPECT_GT(m.recovery.stw_fallbacks, 0u);
    EXPECT_GT(m.degradedEpochs(), 0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
}

/**
 * Watchdog backoff must saturate, not overflow: with a backoff_base
 * in the top bits of Cycles, the unclamped `base << attempt` used to
 * wrap to a tiny (or enormous) sleep, either spinning the watchdog
 * or parking it past the end of the run. The clamped ladder sleeps
 * at most max_backoff and the stalled run still completes.
 */
TEST(ChaosRecovery, HugeBackoffBaseStillCompletes)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 32 * 1024;
    cfg.faults = base(707);
    cfg.faults.sweeper_stall_prob = 1.0;
    cfg.faults.sweeper_stall_cycles = 30'000'000;
    cfg.faults.window_end = 5'000'000;
    cfg.watchdog.backoff_base = Cycles{1} << 62;
    cfg.seed = 42;
    Machine m(cfg);
    std::uint64_t final_epoch = 1;
    std::size_t final_quar = 1;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        test::churn(m, ctx, 1200);
        final_epoch = m.kernel().epoch().value();
        final_quar = m.heap().quarantineBytes();
    });
    m.run();
    const RunMetrics metrics = m.metrics();
    ASSERT_GT(metrics.faults_injected.sweeper_stalls, 0u);
    EXPECT_GT(metrics.recovery.deadline_misses, 0u);
    EXPECT_EQ(final_epoch % 2, 0u);
    EXPECT_EQ(final_quar, 0u);
}

/**
 * After a rung-3 force-complete the ladder must re-arm: the next
 * epoch gets a fresh deadline and attempt count instead of instantly
 * re-escalating. Healthy epochs after the stall window therefore
 * complete undegraded.
 */
TEST(ChaosRecovery, WatchdogReArmsAfterForceComplete)
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.audit = true;
    cfg.policy.min_bytes = 32 * 1024;
    cfg.faults = base(707);
    // Early stalls long enough that the ladder climbs to rung 3
    // (deadline + nudge/backoff rounds ~ 5.5M cycles after epoch
    // start). The second churn phase below runs after the daemon has
    // slept its stall off; its epochs are the healthy ones the
    // re-armed ladder must leave alone.
    cfg.faults.sweeper_stall_prob = 1.0;
    cfg.faults.sweeper_stall_cycles = 8'000'000;
    cfg.faults.window_end = 2'000'000;
    cfg.seed = 42;
    Machine m(cfg);
    std::uint64_t final_epoch = 1;
    m.spawnMutator("app", 1u << 3, [&](Mutator &ctx) {
        test::churn(m, ctx, 1200);
        // Outlive the stall (ends by window_end + stall_cycles).
        ctx.thread().sleep(15'000'000);
        test::churn(m, ctx, 1200);
        final_epoch = m.kernel().epoch().value();
    });
    m.run();
    const RunMetrics metrics = m.metrics();
    // The rung-3 path fired during the stall window...
    ASSERT_GT(metrics.recovery.stw_fallbacks, 0u);
    ASSERT_GT(metrics.epochs.size(), metrics.degradedEpochs());
    // ...and epochs after the window ran clean: had the ladder kept
    // its old (blown) deadline, every later epoch would escalate too.
    std::size_t trailing_clean = 0;
    for (auto it = metrics.epochs.rbegin();
         it != metrics.epochs.rend() && !it->recovery.degraded &&
         !it->recovery.forced;
         ++it)
        ++trailing_clean;
    EXPECT_GT(trailing_clean, 0u);
    EXPECT_EQ(final_epoch % 2, 0u);
}

TEST(ChaosRecovery, CleanPlanInjectsNothingAndRecoversNothing)
{
    // A disabled plan must leave the machine bit-identical to a run
    // with no fault machinery at all (no injector, no watchdog).
    Plan off{"off", sim::FaultPlan{}, 1};
    const RunResult with_plan =
        runChaos(Strategy::kReloaded, off, 1000);
    EXPECT_EQ(with_plan.metrics.faults_injected.sweeper_stalls, 0u);
    EXPECT_EQ(with_plan.metrics.recovery.deadline_misses, 0u);
    EXPECT_EQ(with_plan.metrics.degradedEpochs(), 0u);
}

TEST(ChaosPlans, CampaignCoversEveryPlan)
{
    EXPECT_EQ(allPlans().size(), kNumPlans);
}

TEST(ChaosRecovery, DroppedShootdownsAreResent)
{
    const auto plans = allPlans();
    const Plan &plan = plans[9]; // shootdown_drop
    ASSERT_STREQ(plan.name, "shootdown_drop");
    SCOPED_TRACE(reproLine(Strategy::kReloaded, plan, 2500));
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.shootdown_drops, 0u)
        << "the plan must actually lose IPIs";
    // Every lost IPI leaves an un-acked core; the initiator's bounded
    // re-send rounds must have picked each one up.
    EXPECT_GT(m.mmu.shootdown_resends, 0u);
    EXPECT_GT(
        m.recovery_protocols[static_cast<unsigned>(
                                 trace::RecoveryProtocol::kShootdownResend)]
            .tickets,
        0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
    EXPECT_EQ(m.oracle_violations, 0u);
}

TEST(ChaosRecovery, LateShootdownAcksOnlyCostTime)
{
    const auto plans = allPlans();
    const Plan &plan = plans[10]; // shootdown_late
    ASSERT_STREQ(plan.name, "shootdown_late");
    SCOPED_TRACE(reproLine(Strategy::kReloaded, plan, 2500));
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.shootdown_lates, 0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
    EXPECT_EQ(m.oracle_violations, 0u);
}

TEST(ChaosRecovery, StalledCoresAreObservedAndOutlived)
{
    const auto plans = allPlans();
    const Plan &plan = plans[11]; // core_stall
    ASSERT_STREQ(plan.name, "core_stall");
    SCOPED_TRACE(reproLine(Strategy::kReloaded, plan, 2500));
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.core_stalls, 0u)
        << "the plan must actually freeze a core";
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
    EXPECT_EQ(m.oracle_violations, 0u);
}

TEST(ChaosRecovery, CorruptedSummariesAreRepairedFromGroundTruth)
{
    const auto plans = allPlans();
    const Plan &plan = plans[12]; // summary_corrupt
    ASSERT_STREQ(plan.name, "summary_corrupt");
    SCOPED_TRACE(reproLine(Strategy::kReloaded, plan, 2500));
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.summary_corruptions, 0u)
        << "the plan must actually flip summary bits";
    // Detection alone would have panicked the audit; the run
    // completing with repairs recorded proves the rebuild path ran.
    EXPECT_GT(m.summary_repairs, 0u);
    EXPECT_GT(
        m.recovery_protocols[static_cast<unsigned>(
                                 trace::RecoveryProtocol::kSummaryRepair)]
            .successes,
        0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
    EXPECT_EQ(m.oracle_violations, 0u);
}

TEST(ChaosRecovery, DroppedQuarantineHandoffsAreResent)
{
    const auto plans = allPlans();
    const Plan &plan = plans[13]; // quarantine_drop
    ASSERT_STREQ(plan.name, "quarantine_drop");
    SCOPED_TRACE(reproLine(Strategy::kReloaded, plan, 2500));
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.quarantine_drops, 0u)
        << "the plan must actually lose epoch requests";
    // A lost hand-off stalls the allocator's wait; the bounded
    // re-send loop must have recovered each one.
    EXPECT_GT(m.quarantine.handoff_resends, 0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
    EXPECT_EQ(m.oracle_violations, 0u);
}

TEST(ChaosRecovery, DuplicateQuarantineHandoffsAreIdempotent)
{
    const auto plans = allPlans();
    const Plan &plan = plans[14]; // quarantine_duplicate
    ASSERT_STREQ(plan.name, "quarantine_duplicate");
    SCOPED_TRACE(reproLine(Strategy::kReloaded, plan, 2500));
    const RunResult r = runChaos(Strategy::kReloaded, plan, 2500);
    const RunMetrics &m = r.metrics;
    ASSERT_GT(m.faults_injected.quarantine_duplicates, 0u);
    EXPECT_EQ(r.final_epoch_value % 2, 0u);
    EXPECT_EQ(r.final_quarantine_bytes, 0u);
    EXPECT_EQ(m.oracle_violations, 0u);
}

// --- FaultPlan structural validation (Machine rejects bad plans) ---

MachineConfig
validChaosConfig()
{
    MachineConfig cfg;
    cfg.strategy = Strategy::kReloaded;
    cfg.faults.enabled = true;
    cfg.faults.seed = 7;
    return cfg;
}

TEST(FaultPlanValidation, ProbabilityOutOfRangeIsRejected)
{
    MachineConfig cfg = validChaosConfig();
    cfg.faults.shootdown_drop_prob = 1.5;
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
    try {
        Machine m(cfg);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("shootdown_drop_prob"),
                  std::string::npos)
            << e.what();
    }
    cfg = validChaosConfig();
    cfg.faults.quarantine_drop_prob = -0.25;
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

TEST(FaultPlanValidation, InvertedWindowIsRejected)
{
    MachineConfig cfg = validChaosConfig();
    cfg.faults.window_begin = 2'000'000;
    cfg.faults.window_end = 1'000'000;
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

TEST(FaultPlanValidation, ZeroCycleStallWithNonzeroProbIsRejected)
{
    MachineConfig cfg = validChaosConfig();
    cfg.faults.core_stall_prob = 0.5;
    cfg.faults.core_stall_cycles = 0;
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
    cfg = validChaosConfig();
    cfg.faults.shootdown_late_prob = 0.5;
    cfg.faults.shootdown_late_cycles = 0;
    EXPECT_THROW(Machine m(cfg), std::invalid_argument);
}

TEST(FaultPlanValidation, WellFormedPlansConstruct)
{
    for (const Plan &plan : allPlans()) {
        SCOPED_TRACE(plan.name);
        EXPECT_EQ(plan.faults.validate(), "");
        MachineConfig cfg = validChaosConfig();
        cfg.faults = plan.faults;
        EXPECT_NO_THROW(Machine m(cfg));
    }
}

} // namespace
} // namespace crev
