/**
 * @file
 * Figure 9: distributions of per-epoch revocation phase times for a
 * representative set of benchmarks — CHERIvoke's single world-stopped
 * phase; Cornucopia's concurrent and world-stopped phases; Reloaded's
 * world-stopped and concurrent phases and per-epoch cumulative
 * fault-handling time.
 *
 * Paper anchors: Cornucopia's STW is ~1/10th of its concurrent
 * phase; Reloaded's STW is tens of microseconds — three or more
 * orders of magnitude below Cornucopia's on large-heap workloads —
 * and even Reloaded's cumulative fault time usually stays below
 * Cornucopia's STW.
 *
 * This bench also cross-checks the trace subsystem (DESIGN.md §10):
 * for every strategy, the per-phase totals recomputed from the event
 * trace must equal the RunMetrics phase accounting exactly.
 *
 * Usage: fig9_phase_times [--trace-out FILE] [--check-out FILE]
 *                         [--trace-check-only]
 *   --trace-out: write the Reloaded check run's Chrome trace JSON.
 *   --check-out: run with the race checker on (DESIGN.md §11.1) and
 *                write the Reloaded run's violation report JSON.
 *   --trace-check-only: run only the trace cross-check (CI).
 */

#include <cstring>

#include "bench_util.h"
#include "trace/metrics_registry.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"

using namespace crev;

namespace {

stats::Boxplot
phaseBox(const std::vector<revoker::EpochTiming> &epochs,
         Cycles revoker::EpochTiming::*field)
{
    stats::Samples s;
    for (const auto &e : epochs)
        s.add(cyclesToMicros(e.*field));
    return stats::boxplot(s);
}

std::string
boxStr(const stats::Boxplot &b)
{
    if (b.n == 0)
        return "-";
    return stats::Table::fmt(b.p25, 1) + "/" +
           stats::Table::fmt(b.median, 1) + "/" +
           stats::Table::fmt(b.p75, 1);
}

void
addRows(stats::Table &table, const std::string &bench,
        const std::map<std::string, std::vector<revoker::EpochTiming>>
            &per_strategy)
{
    const auto &cv = per_strategy.at("cherivoke");
    const auto &co = per_strategy.at("cornucopia");
    const auto &re = per_strategy.at("reloaded");
    table.addRow({bench, boxStr(phaseBox(cv,
                                &revoker::EpochTiming::stw_duration)),
                  boxStr(phaseBox(co,
                                &revoker::EpochTiming::concurrent_duration)),
                  boxStr(phaseBox(co,
                                &revoker::EpochTiming::stw_duration)),
                  boxStr(phaseBox(re,
                                &revoker::EpochTiming::stw_duration)),
                  boxStr(phaseBox(re,
                                &revoker::EpochTiming::concurrent_duration)),
                  boxStr(phaseBox(re,
                                &revoker::EpochTiming::fault_time_total))});
}

/**
 * Run one revoking profile per strategy with tracing on and check the
 * per-phase totals recomputed from the trace against the RunMetrics
 * epoch accounting, cycle for cycle. Optionally writes the Reloaded
 * run's trace JSON to @p trace_out and, when @p check_out is set,
 * runs with the race checker attached and writes its report there —
 * both subsystems are zero-simulated-cost, so the cross-check totals
 * are unaffected.
 */
bool
traceCrossCheck(const char *trace_out, const char *check_out)
{
    bool ok = true;
    for (core::Strategy s :
         {core::Strategy::kPaintOnly, core::Strategy::kCheriVoke,
          core::Strategy::kCornucopia, core::Strategy::kReloaded,
          core::Strategy::kCheriotFilter}) {
        core::MachineConfig cfg;
        cfg.strategy = s;
        cfg.policy = workload::specPolicy();
        cfg.trace = true;
        cfg.trace_buffer_events = 1u << 20; // never drop in this run
        if (check_out != nullptr)
            cfg.check = true;
        core::Machine m(cfg);
        workload::runSpec(m, workload::specProfile("hmmer_retro"));

        const core::RunMetrics rm = m.metrics();
        const trace::PhaseSummary ps =
            trace::summarize(*m.tracerOrNull());
        if (ps.dropped != 0 || ps.unmatched != 0) {
            std::fprintf(stderr,
                         "FAIL: %s trace dropped=%llu unmatched=%llu\n",
                         core::strategyName(s),
                         static_cast<unsigned long long>(ps.dropped),
                         static_cast<unsigned long long>(ps.unmatched));
            ok = false;
        }

        Cycles stw = 0, conc = 0, fault = 0;
        for (const auto &e : rm.epochs) {
            stw += e.stw_duration;
            conc += e.concurrent_duration;
            fault += e.fault_time_total;
        }
        const struct
        {
            const char *name;
            trace::Phase phase;
            Cycles expect;
        } checks[] = {
            {"stw_scan", trace::Phase::kStwScan, stw},
            {"concurrent_sweep", trace::Phase::kConcurrentSweep, conc},
            {"load_fault_sweep", trace::Phase::kLoadFaultSweep, fault},
        };
        for (const auto &c : checks) {
            const Cycles got =
                ps.phases[static_cast<std::size_t>(c.phase)]
                    .total_cycles;
            if (got != c.expect) {
                std::fprintf(
                    stderr,
                    "FAIL: %s %s trace total %llu != metrics %llu\n",
                    core::strategyName(s), c.name,
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(c.expect));
                ok = false;
            }
        }
        std::fprintf(stderr,
                     "  trace check %-14s epochs=%zu stw=%llu "
                     "conc=%llu fault=%llu cycles: %s\n",
                     core::strategyName(s), rm.epochs.size(),
                     static_cast<unsigned long long>(stw),
                     static_cast<unsigned long long>(conc),
                     static_cast<unsigned long long>(fault),
                     ok ? "ok" : "MISMATCH");

        if (s == core::Strategy::kReloaded && trace_out != nullptr) {
            std::FILE *f = std::fopen(trace_out, "w");
            if (f == nullptr) {
                std::fprintf(stderr, "cannot write %s\n", trace_out);
                ok = false;
            } else {
                const std::string json = m.traceJson();
                std::fwrite(json.data(), 1, json.size(), f);
                std::fclose(f);
                std::fprintf(stderr, "  wrote %s\n", trace_out);
            }
        }
        if (s == core::Strategy::kReloaded && check_out != nullptr) {
            std::FILE *f = std::fopen(check_out, "w");
            if (f == nullptr) {
                std::fprintf(stderr, "cannot write %s\n", check_out);
                ok = false;
            } else {
                const std::string json = m.checkReportJson();
                std::fwrite(json.data(), 1, json.size(), f);
                std::fclose(f);
                std::fprintf(stderr, "  wrote %s\n", check_out);
            }
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *trace_out = nullptr;
    const char *check_out = nullptr;
    bool check_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc)
            trace_out = argv[++i];
        else if (std::strcmp(argv[i], "--check-out") == 0 &&
                 i + 1 < argc)
            check_out = argv[++i];
        else if (std::strcmp(argv[i], "--trace-check-only") == 0)
            check_only = true;
    }

    std::fprintf(stderr,
                 "  trace cross-check (phase totals vs metrics)...\n");
    const bool trace_ok = traceCrossCheck(trace_out, check_out);
    if (!trace_ok) {
        std::fprintf(stderr,
                     "fig9: trace/metrics phase accounting diverged\n");
        return 1;
    }
    if (check_only)
        return 0;

    benchutil::banner(
        "Figure 9: revocation phase times (p25/median/p75, "
        "microseconds)",
        "paper fig. 9");

    stats::Table table({"benchmark", "cv_stw", "corn_conc", "corn_stw",
                        "rel_stw", "rel_conc", "rel_faults"});

    benchutil::SpecRunner runner;
    const std::vector<std::string> spec_names{
        "astar", "omnetpp", "xalancbmk",
        "hmmer_retro", "gobmk", "libquantum"};
    runner.prefetch(spec_names, benchutil::kSafe);
    for (const auto &name : spec_names) {
        std::map<std::string, std::vector<revoker::EpochTiming>> per;
        for (core::Strategy s : benchutil::kSafe)
            per[core::strategyName(s)] = runner.run(name, s).epochs;
        addRows(table, name, per);
    }

    {
        workload::PgbenchConfig cfg;
        std::fprintf(stderr, "  running pgbench cells on %u host "
                     "threads...\n",
                     benchutil::benchThreads());
        auto results = benchutil::parallelMap(
            benchutil::kSafe.size(), [&](std::size_t i) {
                return workload::runPgbench(benchutil::kSafe[i], cfg)
                    .metrics.epochs;
            });
        std::map<std::string, std::vector<revoker::EpochTiming>> per;
        for (std::size_t i = 0; i < benchutil::kSafe.size(); ++i)
            per[core::strategyName(benchutil::kSafe[i])] =
                std::move(results[i]);
        addRows(table, "pgbench", per);
    }
    {
        workload::GrpcConfig cfg;
        std::fprintf(stderr, "  running grpc cells on %u host "
                     "threads...\n",
                     benchutil::benchThreads());
        auto results = benchutil::parallelMap(
            benchutil::kSafe.size(), [&](std::size_t i) {
                return workload::runGrpcQps(benchutil::kSafe[i], cfg)
                    .metrics.epochs;
            });
        std::map<std::string, std::vector<revoker::EpochTiming>> per;
        for (std::size_t i = 0; i < benchutil::kSafe.size(); ++i)
            per[core::strategyName(benchutil::kSafe[i])] =
                std::move(results[i]);
        addRows(table, "grpc_qps", per);
    }

    table.print();

    // Sweep work per strategy, read back through the MetricsRegistry
    // export (the same "sweep.*" names every bench's JSON artifact
    // carries): how much page/line/cap scanning each strategy's phase
    // times above actually paid for.
    std::printf("\nsweep work per strategy (hmmer_retro):\n");
    stats::Table work(
        {"strategy", "pages", "lines", "caps_seen", "revoked"});
    for (core::Strategy s : benchutil::kSafe) {
        trace::MetricsRegistry reg;
        runner.run("hmmer_retro", s).exportTo(reg);
        work.addRow(
            {core::strategyName(s),
             std::to_string(reg.counterValue("sweep.pages_swept")),
             std::to_string(reg.counterValue("sweep.lines_read")),
             std::to_string(reg.counterValue("sweep.caps_seen")),
             std::to_string(reg.counterValue("sweep.caps_revoked"))});
    }
    work.print();

    std::printf(
        "\nExpected shape: Cornucopia STW ~ a tenth of its "
        "concurrent phase; Reloaded STW is tens of microseconds, "
        "orders of magnitude below Cornucopia's on large-heap rows, "
        "and larger for the multi-threaded gRPC row (inter-core "
        "synchronisation); Reloaded's cumulative fault time usually "
        "stays below Cornucopia's STW.\n");
    return 0;
}
