/**
 * @file
 * The host-performance trajectory bench: runs the union of the
 * fig1-fig9 simulation cells on one host thread and then across the
 * host thread pool, measures the sweep microbench regimes and the
 * sharded-allocator cell, and writes everything to
 * BENCH_TRAJECTORY.json (machine-readable; see DESIGN.md §9 for how to
 * read BENCH_*.json files). The trajectory file *accumulates*: each
 * run appends one entry to the top-level "runs" array, so successive
 * CI artifacts form a host-performance time series under one stable
 * name. Per-cell metrics are the full MetricsRegistry export
 * (counters/gauges/histograms).
 *
 * Simulated results are identical in every mode — this binary measures
 * how fast the *simulator* runs, and doubles as a regression gate for
 * determinism (it fails loudly if the one-thread and N-thread legs, or
 * repeated trials of any measurement, disagree on a simulated number).
 *
 * Usage: bench_all [--quick] [--out FILE] [--label NAME] [--threads N]
 *   --quick: small cell set for CI smoke runs.
 *   --label: name recorded for this run's entry (default "local").
 *   --threads: host threads for the parallel e2e leg (default: the
 *     CREV_BENCH_THREADS/affinity-derived benchThreads()).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "bench_util.h"
#include "core/machine.h"
#include "core/mutator.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"
#include "workload/spec.h"

using namespace crev;
using benchutil::CellResult;
using benchutil::ParallelRunner;
using benchutil::SweepRegime;
using benchutil::SweepRegimeResult;

namespace {

struct RegimeRow
{
    SweepRegime regime;
    SweepRegimeResult result;
    bool sim_match = true;
};

void
addCells(ParallelRunner &runner, bool quick)
{
    // SPEC-like profiles (figs 1-4, 9). Quick mode keeps the two
    // fastest revoking profiles and the headline strategies.
    std::vector<std::string> profiles;
    std::vector<core::Strategy> spec_strategies;
    if (quick) {
        profiles = {"hmmer_retro", "astar"};
        spec_strategies = {core::Strategy::kBaseline,
                           core::Strategy::kCornucopia,
                           core::Strategy::kReloaded};
    } else {
        for (const auto &p : workload::specProfiles())
            profiles.push_back(p.name);
        spec_strategies = {core::Strategy::kBaseline};
        spec_strategies.insert(spec_strategies.end(),
                               benchutil::kSafeAndPaint.begin(),
                               benchutil::kSafeAndPaint.end());
    }
    for (const auto &name : profiles)
        for (core::Strategy s : spec_strategies)
            runner.add("spec/" + name + "/" + core::strategyName(s),
                       [s, name] {
                           return workload::runSpecOn(
                               s, workload::specProfile(name));
                       });

    // pgbench (figs 5-7, 9) and gRPC QPS (figs 8-9).
    std::vector<core::Strategy> srv_strategies{
        core::Strategy::kBaseline};
    if (quick) {
        srv_strategies.push_back(core::Strategy::kReloaded);
    } else {
        srv_strategies.insert(srv_strategies.end(),
                              benchutil::kSafeAndPaint.begin(),
                              benchutil::kSafeAndPaint.end());
    }
    for (core::Strategy s : srv_strategies)
        runner.add(std::string("pgbench/") + core::strategyName(s),
                   [s] {
                       workload::PgbenchConfig cfg;
                       return workload::runPgbench(s, cfg).metrics;
                   });
    if (!quick)
        for (core::Strategy s :
             {core::Strategy::kBaseline, core::Strategy::kCheriVoke,
              core::Strategy::kCornucopia, core::Strategy::kReloaded})
            runner.add(std::string("grpc/") + core::strategyName(s),
                       [s] {
                           workload::GrpcConfig cfg;
                           return workload::runGrpcQps(s, cfg).metrics;
                       });
}

double
timedRun(bool quick, unsigned threads, const std::string &cost_file,
         std::vector<CellResult> *results_out)
{
    ParallelRunner runner;
    runner.setCostFile(cost_file);
    addCells(runner, quick);
    const auto start = std::chrono::steady_clock::now();
    auto results = runner.run(threads);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (results_out != nullptr)
        *results_out = std::move(results);
    return secs;
}

/**
 * Previously accumulated run entries from an existing trajectory
 * file: the text between "runs": [ and the final ], trimmed. Empty
 * when the file is missing or not in the trajectory format.
 */
std::string
readPreviousRuns(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    const std::string open = "\"runs\": [";
    const auto begin = text.find(open);
    const auto end = text.rfind(']');
    if (begin == std::string::npos || end == std::string::npos ||
        end <= begin)
        return "";
    std::string runs = text.substr(begin + open.size(),
                                   end - begin - open.size());
    const auto first = runs.find_first_not_of(" \n\t");
    const auto last = runs.find_last_not_of(" \n\t");
    if (first == std::string::npos)
        return "";
    return runs.substr(first, last - first + 1);
}

/** The simulated-result fields compared across host configurations
 *  and trials: a summary fingerprint of the run. */
bool
sameMetrics(const core::RunMetrics &a, const core::RunMetrics &b)
{
    return a.wall_cycles == b.wall_cycles &&
           a.cpu_cycles == b.cpu_cycles &&
           a.bus_transactions_total == b.bus_transactions_total &&
           a.peak_rss_pages == b.peak_rss_pages &&
           a.epochs.size() == b.epochs.size() &&
           a.sweep.caps_revoked == b.sweep.caps_revoked;
}

/** Simulated results must be identical across host configurations. */
bool
sameSimResults(const std::vector<CellResult> &a,
               const std::vector<CellResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name ||
            !sameMetrics(a[i].metrics, b[i].metrics)) {
            std::fprintf(stderr,
                         "FAIL: cell %s simulated results differ "
                         "across host configurations\n",
                         a[i].name.c_str());
            return false;
        }
    }
    return true;
}

struct AllocShardResult
{
    unsigned alloc_cores = 4;
    int iters = 0;
    double single_seconds = 0;
    double sharded_seconds = 0;
    std::uint64_t remote_free_sends = 0;
    bool match = true;
};

/** The cross-core-free regime: a producer allocating on core 0, a
 *  consumer freeing on core 1, so with alloc_cores > 1 every consumer
 *  free rides the remote-dealloc message queues (DESIGN.md §15). */
core::RunMetrics
runXcoreCell(unsigned alloc_cores, int iters)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy.min_bytes = 64 * 1024;
    cfg.alloc_cores = alloc_cores;
    cfg.seed = 5;
    core::Machine m(cfg);
    auto queue = std::make_shared<std::vector<cap::Capability>>();
    m.spawnMutator("prod", 1u << 0, [=](core::Mutator &ctx) {
        for (int i = 0; i < iters; ++i) {
            cap::Capability c = ctx.malloc(16 << (i % 6));
            ctx.store64(c, 0, static_cast<std::uint64_t>(i));
            queue->push_back(c);
            ctx.compute(150);
        }
    });
    m.spawnMutator("cons", 1u << 1, [=, &m](core::Mutator &ctx) {
        std::size_t taken = 0;
        while (taken < static_cast<std::size_t>(iters)) {
            if (taken < queue->size()) {
                const cap::Capability c = (*queue)[taken++];
                ctx.load64(c, 0);
                ctx.free(c);
                ctx.compute(120);
            } else {
                ctx.compute(400);
            }
        }
        m.heap().drain(ctx.thread());
    });
    m.run();
    return m.metrics();
}

/**
 * Sharded-allocator A/B: the cross-core-free cell at alloc_cores = 1
 * (single heap) and alloc_cores = 4. Trials are repeated with the
 * minimum host time kept, like the microbench; RunMetrics must be
 * identical across trials at each shard count (across shard counts
 * they legitimately differ — that is the simulated topology changing).
 */
AllocShardResult
measureAllocShard(bool quick)
{
    AllocShardResult r;
    // Sized so every timed leg is well clear of host scheduling noise
    // (tens of milliseconds at minimum); check_trajectory.py rejects
    // legs below the emitted min_leg_seconds floor.
    const int iters = quick ? 30000 : 60000;
    r.iters = iters;
    const std::size_t trials = 3;
    for (const bool sharded : {false, true}) {
        const unsigned ac = sharded ? r.alloc_cores : 1;
        core::RunMetrics first;
        double best = 0;
        for (std::size_t k = 0; k < trials; ++k) {
            std::fprintf(stderr,
                         "  alloc-shard trial %zu/%zu (alloc_cores "
                         "%u)...\n",
                         k + 1, trials, ac);
            const auto start = std::chrono::steady_clock::now();
            core::RunMetrics m = runXcoreCell(ac, iters);
            const double secs = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    start)
                                    .count();
            if (k == 0) {
                best = secs;
                first = std::move(m);
                continue;
            }
            best = std::min(best, secs);
            if (!sameMetrics(m, first) ||
                m.quarantine.remote_free_sends !=
                    first.quarantine.remote_free_sends) {
                std::fprintf(stderr,
                             "FAIL: alloc_cores %u simulated results "
                             "vary across trials\n",
                             ac);
                r.match = false;
            }
        }
        if (sharded) {
            r.sharded_seconds = best;
            r.remote_free_sends = first.quarantine.remote_free_sends;
            if (r.remote_free_sends == 0) {
                std::fprintf(stderr,
                             "FAIL: sharded cell drove no remote "
                             "frees\n");
                r.match = false;
            }
        } else {
            r.single_seconds = best;
            if (first.quarantine.remote_free_sends != 0) {
                std::fprintf(stderr,
                             "FAIL: single-heap cell sent remote "
                             "frees\n");
                r.match = false;
            }
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out_path = "BENCH_TRAJECTORY.json";
    std::string label = "local";
    unsigned threads_flag = 0; // 0 = benchThreads()
    const auto parseCount = [](const char *s) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(s, &end, 10);
        if (end == s || *end != '\0' || v == 0 || v > 1024) {
            std::fprintf(stderr, "bench_all: bad thread count '%s'\n",
                         s);
            std::exit(2);
        }
        return static_cast<unsigned>(v);
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc)
            label = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads_flag = parseCount(argv[++i]);
    }

    benchutil::banner("Host-performance trajectory (bench_all)",
                      "simulator host perf; no paper figure");

    // --- sweep microbench: four tag regimes ---
    const std::size_t pages = quick ? 16 : 64;
    const std::size_t repeats = quick ? 10 : 40;
    // Host timings on a shared box are noisy; each measurement window
    // is only tens of milliseconds. Measure over several trials and
    // keep the minimum (the least-disturbed run). Simulated cycles
    // must be identical across every trial.
    const std::size_t trials = quick ? 2 : 5;
    std::vector<RegimeRow> regimes;
    bool determinism_ok = true;
    for (SweepRegime r :
         {SweepRegime::kClean, SweepRegime::kSparse, SweepRegime::kFull,
          SweepRegime::kRevokeDense}) {
        RegimeRow row;
        row.regime = r;
        std::fprintf(stderr, "  sweep regime %s (%zu trials)...\n",
                     benchutil::sweepRegimeName(r), trials);
        for (std::size_t k = 0; k < trials; ++k) {
            const auto m =
                benchutil::measureSweepRegime(r, pages, repeats);
            if (k == 0) {
                row.result = m;
                continue;
            }
            row.result.host_ns_per_page = std::min(
                row.result.host_ns_per_page, m.host_ns_per_page);
            if (m.sim_cycles_per_page != row.result.sim_cycles_per_page) {
                std::fprintf(stderr,
                             "FAIL: regime %s simulated cycles vary "
                             "across trials\n",
                             benchutil::sweepRegimeName(r));
                row.sim_match = false;
            }
        }
        determinism_ok = determinism_ok && row.sim_match;
        regimes.push_back(row);
    }

    std::printf("sweep microbench (%zu pages x %zu repeats):\n", pages,
                repeats);
    std::printf("  %-12s %12s %16s\n", "regime", "host ns/page",
                "sim cycles/page");
    for (const auto &row : regimes)
        std::printf("  %-12s %12.1f %16.1f\n",
                    benchutil::sweepRegimeName(row.regime),
                    row.result.host_ns_per_page,
                    row.result.sim_cycles_per_page);

    // --- end-to-end cell set: one host thread vs the thread pool ---
    // Simulated results must be identical in both legs. Two
    // interleaved rounds, minimum kept per leg — the same noise
    // treatment as the microbench.
    const unsigned threads = threads_flag != 0
                                 ? threads_flag
                                 : benchutil::benchThreads();
    const std::size_t rounds = 2;
    double serial_secs = 0, parallel_secs = 0;
    std::vector<CellResult> cells;
    for (std::size_t round = 0; round < rounds; ++round) {
        std::fprintf(stderr, "  e2e round %zu/%zu: 1 host thread...\n",
                     round + 1, rounds);
        std::vector<CellResult> sc;
        const double s = timedRun(quick, 1, out_path, &sc);
        std::fprintf(stderr, "  e2e round %zu/%zu: %u host threads...\n",
                     round + 1, rounds, threads);
        std::vector<CellResult> pc;
        const double p = timedRun(quick, threads, out_path, &pc);
        determinism_ok = determinism_ok && sameSimResults(sc, pc);
        if (round == 0) {
            serial_secs = s;
            parallel_secs = p;
            cells = std::move(pc);
        } else {
            serial_secs = std::min(serial_secs, s);
            parallel_secs = std::min(parallel_secs, p);
            determinism_ok = determinism_ok && sameSimResults(cells, pc);
        }
    }

    std::printf("\nend-to-end cell set (%zu cells):\n", cells.size());
    std::printf("  1 host thread:    %.2fs\n", serial_secs);
    std::printf("  %2u host threads:  %.2fs (%.2fx)\n", threads,
                parallel_secs, serial_secs / parallel_secs);

    // --- sharded-allocator A/B (DESIGN.md §15) ---
    std::fprintf(stderr, "  sharded-allocator comparison...\n");
    const AllocShardResult ashard = measureAllocShard(quick);
    determinism_ok = determinism_ok && ashard.match;
    std::printf("\nsharded allocator (cross-core producer/consumer, "
                "alloc_cores 1 vs %u):\n",
                ashard.alloc_cores);
    std::printf("  single heap:  %.2fs\n", ashard.single_seconds);
    std::printf("  %u shards:     %.2fs (%llu remote frees)\n",
                ashard.alloc_cores, ashard.sharded_seconds,
                static_cast<unsigned long long>(
                    ashard.remote_free_sends));

    // --- BENCH_TRAJECTORY.json (accumulating) ---
    const std::string prev_runs = readPreviousRuns(out_path);
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_all\",\n");
    std::fprintf(f, "  \"runs\": [\n");
    if (!prev_runs.empty())
        std::fprintf(f, "    %s,\n", prev_runs.c_str());
    std::fprintf(f, "    {\n      \"label\": \"%s\",\n",
                 benchutil::jsonEscape(label).c_str());
    std::fprintf(f, "      \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "      \"host_threads\": %u,\n", threads);
    std::fprintf(f, "      \"host_cpus\": %u,\n", benchutil::hostCpus());
    std::fprintf(f, "      \"sweep_microbench\": [\n");
    for (std::size_t i = 0; i < regimes.size(); ++i) {
        const auto &row = regimes[i];
        std::fprintf(f,
                     "        {\"regime\": \"%s\", "
                     "\"host_ns_per_page\": %.2f, "
                     "\"sim_cycles_per_page\": %.2f, "
                     "\"sim_cycles_match\": %s}%s\n",
                     benchutil::sweepRegimeName(row.regime),
                     row.result.host_ns_per_page,
                     row.result.sim_cycles_per_page,
                     row.sim_match ? "true" : "false",
                     i + 1 < regimes.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    // The fast_* key names predate the removal of the reference leg;
    // they are kept so the trajectory stays one comparable series.
    std::fprintf(f,
                 "      \"end_to_end\": {\"cells\": %zu, "
                 "\"fast_serial_seconds\": %.3f, "
                 "\"fast_parallel_seconds\": %.3f, "
                 "\"parallel_speedup\": %.3f, "
                 "\"sim_results_match\": %s},\n",
                 cells.size(), serial_secs, parallel_secs,
                 serial_secs / parallel_secs,
                 determinism_ok ? "true" : "false");
    std::fprintf(f,
                 "      \"alloc_shard\": "
                 "{\"regime\": \"xcore_producer_consumer\", "
                 "\"alloc_cores\": %u, "
                 "\"iters\": %d, "
                 "\"min_leg_seconds\": %.3f, "
                 "\"single_seconds\": %.3f, "
                 "\"sharded_seconds\": %.3f, "
                 "\"remote_free_sends\": %llu, "
                 "\"sim_results_match\": %s},\n",
                 ashard.alloc_cores, ashard.iters, 0.02,
                 ashard.single_seconds, ashard.sharded_seconds,
                 static_cast<unsigned long long>(
                     ashard.remote_free_sends),
                 ashard.match ? "true" : "false");
    std::fprintf(f, "      \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i)
        std::fprintf(f,
                     "        {\"name\": \"%s\", "
                     "\"host_seconds\": %.4f, "
                     "\"metrics\": %s}%s\n",
                     benchutil::jsonEscape(cells[i].name).c_str(),
                     cells[i].host_seconds,
                     benchutil::metricsJson(cells[i].metrics).c_str(),
                     i + 1 < cells.size() ? "," : "");
    std::fprintf(f, "      ]\n    }\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%s run entries)\n", out_path.c_str(),
                prev_runs.empty() ? "1" : "appended to prior");

    if (!determinism_ok) {
        std::fprintf(stderr, "bench_all: determinism violated\n");
        return 1;
    }
    return 0;
}
