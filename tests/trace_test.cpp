/**
 * @file
 * The tracing subsystem's contracts (DESIGN.md §10): per-thread event
 * order follows virtual time, span events nest for every strategy,
 * tracing charges zero simulated cycles (RunMetrics bit-identical on
 * and off), the exported Chrome JSON is byte-identical across
 * same-seed runs, and the ring buffer and metrics registry behave.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fingerprint.h"
#include "trace/metrics_registry.h"
#include "trace/trace.h"
#include "trace/trace_export.h"
#include "workload/spec.h"

namespace crev {
namespace {

using core::Machine;
using core::MachineConfig;
using core::RunMetrics;
using core::Strategy;
using test::fingerprint;

MachineConfig
tracedConfig(Strategy s, bool trace)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.trace = trace;
    cfg.trace_buffer_events = 1u << 20; // never drop under test
    return cfg;
}

TEST(TraceBuffer, RingDropsOldestAndIteratesInOrder)
{
    trace::TraceBuffer b(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        b.push({/*at=*/i, /*arg64=*/i, /*tid=*/0, /*core=*/0,
                trace::EventType::kThreadRun, /*arg8=*/0});
    EXPECT_EQ(b.recorded(), 6u);
    EXPECT_EQ(b.dropped(), 2u);
    EXPECT_EQ(b.size(), 4u);
    std::vector<Cycles> at;
    b.forEach([&](const trace::Event &e) { at.push_back(e.at); });
    EXPECT_EQ(at, (std::vector<Cycles>{2, 3, 4, 5}));
}

TEST(Trace, PerThreadEventOrderFollowsVirtualTime)
{
    Machine m(tracedConfig(Strategy::kReloaded, true));
    workload::runSpec(m, workload::specProfile("hmmer_retro"));

    trace::Tracer *t = m.tracerOrNull();
    ASSERT_NE(t, nullptr);
    EXPECT_GT(t->totalRecorded(), 0u);
    EXPECT_EQ(t->totalDropped(), 0u);
    for (unsigned tid = 0; tid < t->numThreads(); ++tid) {
        Cycles prev = 0;
        std::size_t n = 0;
        t->buffer(tid)->forEach([&](const trace::Event &e) {
            EXPECT_EQ(e.tid, tid);
            EXPECT_GE(e.at, prev) << "tid " << tid << " event " << n;
            prev = e.at;
            ++n;
        });
    }
}

TEST(Trace, SpansNestForEveryStrategy)
{
    for (Strategy s : core::kAllStrategies) {
        if (s == Strategy::kBaseline)
            continue; // no revoker; nothing phase-shaped to check
        Machine m(tracedConfig(s, true));
        workload::runSpec(m, workload::specProfile("hmmer_retro"));

        const trace::PhaseSummary ps =
            trace::summarize(*m.tracerOrNull());
        EXPECT_EQ(ps.unmatched, 0u) << core::strategyName(s);
        EXPECT_EQ(ps.dropped, 0u) << core::strategyName(s);
        EXPECT_GT(ps.events, 0u) << core::strategyName(s);

        // Phase spans account for exactly the cycles RunMetrics saw.
        const RunMetrics rm = m.metrics();
        Cycles stw = 0, conc = 0, fault = 0;
        for (const auto &e : rm.epochs) {
            stw += e.stw_duration;
            conc += e.concurrent_duration;
            fault += e.fault_time_total;
        }
        using trace::Phase;
        EXPECT_EQ(ps.phases[static_cast<std::size_t>(Phase::kStwScan)]
                      .total_cycles,
                  stw)
            << core::strategyName(s);
        EXPECT_EQ(ps.phases[static_cast<std::size_t>(
                                Phase::kConcurrentSweep)]
                      .total_cycles,
                  conc)
            << core::strategyName(s);
        EXPECT_EQ(ps.phases[static_cast<std::size_t>(
                                Phase::kLoadFaultSweep)]
                      .total_cycles,
                  fault)
            << core::strategyName(s);

        // The summary renders without touching empty histograms.
        EXPECT_FALSE(trace::phaseSummaryText(ps).empty());
    }
}

TEST(Trace, ZeroSimulatedCostAllStrategies)
{
    for (Strategy s : core::kAllStrategies) {
        Machine on(tracedConfig(s, true));
        workload::runSpec(on, workload::specProfile("hmmer_retro"));
        Machine off(tracedConfig(s, false));
        workload::runSpec(off, workload::specProfile("hmmer_retro"));
        EXPECT_EQ(fingerprint(on.metrics()), fingerprint(off.metrics()))
            << "strategy " << core::strategyName(s);
        EXPECT_EQ(off.tracerOrNull(), nullptr);
        EXPECT_EQ(off.traceJson(), "");
    }
}

TEST(Trace, ChromeJsonByteIdenticalAcrossSameSeedRuns)
{
    std::string first;
    for (int run = 0; run < 2; ++run) {
        Machine m(tracedConfig(Strategy::kReloaded, true));
        workload::runSpec(m, workload::specProfile("hmmer_retro"));
        const std::string json = m.traceJson();
        ASSERT_FALSE(json.empty());
        if (run == 0)
            first = json;
        else
            EXPECT_EQ(json, first);
    }
    // Sanity: the export looks like a Chrome trace-event document.
    EXPECT_NE(first.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(first.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(first.find("\"stw_scan\""), std::string::npos);
}

/** Every component that records into the tracer reaches it on a
 *  machine built the standard way. Reloaded's chaos cell fires all
 *  seven emitters: the scheduler's STW window, the bitmap's paint
 *  bracket, the MMU's shootdowns, quarantine backpressure, the fault
 *  injector, the recovery manager and the watchdog ladder. */
TEST(Trace, EveryComponentReachesTheTracer)
{
    MachineConfig cfg = test::chaosConfig(Strategy::kReloaded);
    cfg.trace = true;
    cfg.trace_buffer_events = 1u << 20; // never drop under test
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        test::churn(m, ctx, 800);
    });
    m.run();

    trace::Tracer *t = m.tracerOrNull();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->totalDropped(), 0u);
    std::map<trace::EventType, std::uint64_t> seen;
    std::uint64_t paint_brackets = 0;
    for (unsigned tid = 0; tid < t->numThreads(); ++tid)
        t->buffer(tid)->forEach([&](const trace::Event &e) {
            ++seen[e.type];
            if (e.type == trace::EventType::kPhaseBegin &&
                e.arg8 == static_cast<std::uint8_t>(trace::Phase::kPaint))
                ++paint_brackets;
        });
    auto count = [&](trace::EventType ty) { return seen[ty]; };
    using trace::EventType;
    EXPECT_GT(count(EventType::kStwBegin), 0u) << "scheduler";
    EXPECT_GT(paint_brackets, 0u) << "bitmap";
    EXPECT_GT(count(EventType::kTlbShootdown), 0u) << "mmu";
    EXPECT_GT(count(EventType::kQuarantineBlock), 0u) << "quarantine";
    EXPECT_GT(count(EventType::kFaultInject), 0u) << "fault injector";
    EXPECT_GT(count(EventType::kRecoveryAttempt), 0u) << "recovery";
    EXPECT_GT(count(EventType::kWatchdogEscalate), 0u) << "watchdog";
}

/** A traced machine under one of chaos_test's seeded fault plans:
 *  `drop_faults` loses load-fault completions, `hard_stall` stalls
 *  the sweeper past every watchdog rung. Both wedge Reloaded's epochs
 *  into degraded (emergency stop-the-world) completion. */
MachineConfig
degradedConfig(Strategy s, bool hard_stall)
{
    MachineConfig cfg;
    cfg.strategy = s;
    cfg.audit = true;
    cfg.policy.min_bytes = 32 * 1024;
    cfg.seed = 42;
    cfg.trace = true;
    cfg.trace_buffer_events = 1u << 20; // never drop under test
    cfg.faults.enabled = true;
    if (hard_stall) {
        cfg.faults.seed = 707;
        cfg.faults.sweeper_stall_prob = 1.0;
        cfg.faults.sweeper_stall_cycles = 30'000'000;
        cfg.faults.window_end = 5'000'000;
    } else {
        cfg.faults.seed = 303;
        cfg.faults.fault_drop_prob = 0.5;
        cfg.faults.max_fault_drops = 8;
    }
    return cfg;
}

struct TracedRun
{
    RunMetrics metrics;
    trace::PhaseSummary summary;
    std::uint64_t final_epoch = 0;
};

TracedRun
runTraced(const MachineConfig &cfg, int iters)
{
    Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        test::churn(m, ctx, iters);
    });
    m.run();
    return {m.metrics(), trace::summarize(*m.tracerOrNull()),
            m.kernel().epoch().value()};
}

/** Every epoch opens and closes — daemon epochs, the watchdog's
 *  force-completed ones and its emergency epochs alike: the counter
 *  ends at twice the number of recorded epochs, and every trace span
 *  is closed. */
TEST(Trace, EpochsBalanceUnderChaos)
{
    for (Strategy s : core::kAllStrategies) {
        if (s == Strategy::kBaseline)
            continue;
        MachineConfig chaos = test::chaosConfig(s);
        chaos.trace = true;
        chaos.trace_buffer_events = 1u << 20;
        const TracedRun runs[] = {
            runTraced(chaos, 800),
            runTraced(degradedConfig(s, false), 2500),
            runTraced(degradedConfig(s, true), 1200),
        };
        const char *names[] = {"chaos", "drop_faults", "hard_stall"};
        for (std::size_t i = 0; i < 3; ++i) {
            const TracedRun &r = runs[i];
            SCOPED_TRACE(std::string(core::strategyName(s)) + " " +
                         names[i]);
            EXPECT_EQ(r.summary.unmatched, 0u);
            EXPECT_EQ(r.summary.dropped, 0u);
            EXPECT_GT(r.metrics.epochs.size(), 0u);
            EXPECT_EQ(r.final_epoch, 2 * r.metrics.epochs.size());
        }
    }
}

/** DESIGN.md §10.1's totals claim holds in degraded epochs too: the
 *  emergency stop-the-world sweep that completes a wedged epoch is
 *  bracketed where its time is recorded. */
TEST(Trace, PhaseTotalsMatchRunMetricsInDegradedEpochs)
{
    for (bool hard_stall : {false, true}) {
        SCOPED_TRACE(hard_stall ? "hard_stall" : "drop_faults");
        const TracedRun r =
            runTraced(degradedConfig(Strategy::kReloaded, hard_stall),
                      hard_stall ? 1200 : 2500);
        ASSERT_GT(r.metrics.degradedEpochs(), 0u);
        Cycles stw = 0, conc = 0;
        for (const auto &e : r.metrics.epochs) {
            stw += e.stw_duration;
            conc += e.concurrent_duration;
        }
        using trace::Phase;
        EXPECT_EQ(r.summary.phases[static_cast<std::size_t>(
                                       Phase::kStwScan)]
                      .total_cycles,
                  stw);
        EXPECT_EQ(r.summary.phases[static_cast<std::size_t>(
                                       Phase::kConcurrentSweep)]
                      .total_cycles,
                  conc);
    }
}

TEST(TraceExport, JsonEscapeCoversEveryControlCharacter)
{
    // RFC 8259 forbids raw U+0000-U+001F inside a JSON string.
    EXPECT_EQ(trace::jsonEscape("a\tb"), "a\\u0009b");
    EXPECT_EQ(trace::jsonEscape("a\rb"), "a\\u000db");
    EXPECT_EQ(trace::jsonEscape("a\x01" "b"), "a\\u0001b");
    EXPECT_EQ(trace::jsonEscape("a\nb"), "a\\u000ab");
    EXPECT_EQ(trace::jsonEscape(std::string("a\0b", 3)), "a\\u0000b");
    EXPECT_EQ(trace::jsonEscape("q\"b\\s"), "q\\\"b\\\\s");
    // DEL and UTF-8 bytes pass through unchanged.
    EXPECT_EQ(trace::jsonEscape("x\x7f\xc3\xa9"), "x\x7f\xc3\xa9");
    for (int c = 0; c < 0x20; ++c) {
        const std::string out =
            trace::jsonEscape(std::string(1, static_cast<char>(c)));
        EXPECT_EQ(out.size(), 6u) << c;
        for (char o : out)
            EXPECT_GE(static_cast<unsigned char>(o), 0x20u) << c;
    }
}

TEST(MetricsRegistry, CountersGaugesHistogramsAndJson)
{
    trace::MetricsRegistry reg;
    reg.counter("a.count", 2);
    reg.counter("a.count", 3);
    reg.gauge("b.gauge", 1.5);
    reg.sample("c.hist", 1.0);
    reg.sample("c.hist", 3.0);
    EXPECT_EQ(reg.counterValue("a.count"), 5u);
    EXPECT_EQ(reg.gaugeValue("b.gauge"), 1.5);
    ASSERT_NE(reg.histogram("c.hist"), nullptr);
    EXPECT_EQ(reg.histogram("c.hist")->count(), 2u);
    EXPECT_EQ(reg.counterValue("missing"), 0u);
    EXPECT_EQ(reg.histogram("missing"), nullptr);

    const std::string pretty = reg.toJson();
    EXPECT_NE(pretty.find("\"a.count\": 5"), std::string::npos);
    EXPECT_NE(pretty.find("\"median\": 2"), std::string::npos);
    const std::string compact = reg.toJson(0);
    EXPECT_EQ(compact.find('\n'), std::string::npos);
    EXPECT_NE(compact.find("\"b.gauge\": 1.5"), std::string::npos);
}

TEST(MetricsRegistry, RunMetricsExportCoversEverySubsystem)
{
    Machine m(tracedConfig(Strategy::kReloaded, false));
    workload::runSpec(m, workload::specProfile("hmmer_retro"));
    const RunMetrics rm = m.metrics();

    trace::MetricsRegistry reg;
    rm.exportTo(reg);
    EXPECT_EQ(reg.counterValue("run.wall_cycles"), rm.wall_cycles);
    EXPECT_EQ(reg.counterValue("revoker.epochs"), rm.epochs.size());
    EXPECT_EQ(reg.counterValue("sweep.caps_revoked"),
              rm.sweep.caps_revoked);
    EXPECT_EQ(reg.counterValue("alloc.allocs"), rm.allocator.allocs);
    EXPECT_EQ(reg.counterValue("vm.load_barrier_faults"),
              rm.mmu.load_barrier_faults);
    ASSERT_NE(reg.histogram("revoker.stw_us"), nullptr);
    EXPECT_EQ(reg.histogram("revoker.stw_us")->count(),
              rm.epochs.size());

    // Export is deterministic for identical inputs.
    trace::MetricsRegistry again;
    rm.exportTo(again);
    EXPECT_EQ(reg.toJson(), again.toJson());
}

} // namespace
} // namespace crev
