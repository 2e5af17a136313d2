/**
 * @file
 * The tracing subsystem's contracts (DESIGN.md §10): per-thread event
 * order follows virtual time, span events nest for every strategy,
 * tracing charges zero simulated cycles (RunMetrics bit-identical on
 * and off), the exported Chrome JSON is byte-identical across
 * same-seed runs, and the ring buffer and metrics registry behave.
 */

#include <gtest/gtest.h>

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
