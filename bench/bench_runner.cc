#include "bench_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/mutator.h"
#include "revoker/bitmap.h"
#include "revoker/sweep.h"
#include "trace/metrics_registry.h"
#include "workload/spec.h"

namespace crev::benchutil {

namespace {

/**
 * Most recent "host_seconds" per cell name from a trajectory file.
 * Later occurrences overwrite earlier ones, so the newest run entry
 * wins. Tolerant by construction: a missing file or any other text
 * yields an empty (or partial) map and the caller falls back to
 * static estimates.
 */
std::map<std::string, double>
loadMeasuredCosts(const std::string &path)
{
    std::map<std::string, double> costs;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return costs;
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    const std::string name_key = "{\"name\": \"";
    const std::string secs_key = "\"host_seconds\": ";
    std::size_t pos = 0;
    while ((pos = text.find(name_key, pos)) != std::string::npos) {
        pos += name_key.size();
        const std::size_t name_end = text.find('"', pos);
        if (name_end == std::string::npos)
            break;
        const std::string name = text.substr(pos, name_end - pos);
        const std::size_t secs = text.find(secs_key, name_end);
        if (secs == std::string::npos)
            break;
        costs[name] =
            std::strtod(text.c_str() + secs + secs_key.size(), nullptr);
        pos = name_end;
    }
    return costs;
}

/** Relative strategy weight from the "<...>/<strategy>" name suffix. */
double
strategyWeight(const std::string &name)
{
    const std::size_t slash = name.rfind('/');
    const std::string strategy =
        slash == std::string::npos ? "" : name.substr(slash + 1);
    if (strategy == "cheriot-filter")
        return 3.5;
    if (strategy == "cherivoke" || strategy == "cornucopia")
        return 2.5;
    if (strategy == "reloaded")
        return 2.0;
    if (strategy == "paint+sync")
        return 1.5;
    return 1.0;
}

/** The "<workload>/..." prefix of a cell name (empty if flat). */
std::string
workloadPrefix(const std::string &name)
{
    const std::size_t slash = name.rfind('/');
    return slash == std::string::npos ? "" : name.substr(0, slash);
}

/**
 * Static cost estimate for cells with no measured history, from the
 * cell-name convention "<workload>/.../<strategy>". Only the ordering
 * matters, so rough relative weights are enough. This is the last
 * resort: measured siblings of the same workload are preferred (see
 * ParallelRunner::run).
 */
double
staticCostEstimate(const std::string &name)
{
    double cost = 1.0;
    if (name.compare(0, 8, "pgbench/") == 0)
        cost = 3.0;
    else if (name.compare(0, 5, "grpc/") == 0)
        cost = 2.0;
    return cost * strategyWeight(name);
}

} // namespace

unsigned
hostCpus()
{
    unsigned hw = std::thread::hardware_concurrency();
#if defined(__linux__)
    // hardware_concurrency() reports the machine, not the cpuset this
    // process is confined to; oversubscribing a pinned container makes
    // "parallel" runs strictly slower than serial ones.
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const unsigned usable = static_cast<unsigned>(CPU_COUNT(&set));
        if (usable != 0 && (hw == 0 || usable < hw))
            hw = usable;
    }
#endif
    return hw != 0 ? hw : 1;
}

unsigned
benchThreads()
{
    if (const char *env = std::getenv("CREV_BENCH_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return hostCpus();
}

void
ParallelRunner::add(std::string name,
                    std::function<core::RunMetrics()> fn)
{
    cells_.push_back(Cell{std::move(name), std::move(fn)});
}

std::vector<CellResult>
ParallelRunner::run(unsigned threads)
{
    // Workloads memoize lazily-built statics (profile tables); touch
    // them once on this thread so workers only ever read them.
    workload::specProfiles();

    // Longest-expected-first start order. Stable sort with the
    // submission index as tiebreak keeps the order deterministic for
    // any cost map contents. Cost preference: the cell's own newest
    // measured host_seconds, else a sibling-derived estimate (measured
    // siblings of the same workload, rescaled by relative strategy
    // weight), else the static weight table.
    const std::map<std::string, double> measured =
        loadMeasuredCosts(cost_file_);
    std::vector<double> cost(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const std::string &name = cells_[i].name;
        const auto it = measured.find(name);
        if (it != measured.end()) {
            cost[i] = it->second;
            continue;
        }
        const std::string prefix = workloadPrefix(name);
        double unit_sum = 0;
        std::size_t unit_n = 0;
        for (const auto &[mn, secs] : measured) {
            if (workloadPrefix(mn) != prefix)
                continue;
            const double w = strategyWeight(mn);
            if (secs > 0 && w > 0) {
                unit_sum += secs / w;
                ++unit_n;
            }
        }
        cost[i] = unit_n != 0
                      ? (unit_sum / static_cast<double>(unit_n)) *
                            strategyWeight(name)
                      : staticCostEstimate(name);
    }
    std::vector<std::size_t> order(cells_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });

    auto by_start = parallelMap(
        cells_.size(),
        [&](std::size_t k) {
            const std::size_t i = order[k];
            CellResult r;
            r.name = cells_[i].name;
            const auto start = std::chrono::steady_clock::now();
            r.metrics = cells_[i].fn();
            r.host_seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
            return r;
        },
        threads);

    // Scatter back to submission order — scheduling is invisible in
    // the results.
    std::vector<CellResult> results(cells_.size());
    for (std::size_t k = 0; k < by_start.size(); ++k)
        results[order[k]] = std::move(by_start[k]);
    cells_.clear();
    return results;
}

const char *
sweepRegimeName(SweepRegime r)
{
    switch (r) {
      case SweepRegime::kClean:
        return "clean";
      case SweepRegime::kSparse:
        return "sparse";
      case SweepRegime::kFull:
        return "full";
      case SweepRegime::kRevokeDense:
        return "revoke-dense";
    }
    return "?";
}

SweepRegimeResult
measureSweepRegime(SweepRegime regime, std::size_t pages,
                   std::size_t repeats)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kBaseline; // no revoker daemon
    core::Machine m(cfg);

    SweepRegimeResult result;
    m.spawnMutator("sweep-harness", 1u << 3, [&](core::Mutator &ctx) {
        // One arena spanning `pages` whole pages (plus alignment
        // slack), faulted in up front so the sweep never demand-zeros.
        const std::size_t arena = (pages + 1) * kPageSize;
        const cap::Capability c = ctx.malloc(arena);
        const Addr first_page = roundUp(c.base, kPageSize);
        const Addr off0 = first_page - c.base;
        for (std::size_t p = 0; p < pages; ++p)
            ctx.store64(c, off0 + p * kPageSize, 1);

        const cap::Capability v = ctx.malloc(64);
        const bool revoke_dense = regime == SweepRegime::kRevokeDense;
        const std::size_t caps_per_page =
            regime == SweepRegime::kClean    ? 0
            : regime == SweepRegime::kSparse ? 8
            : revoke_dense                   ? 64
                                             : kGranulesPerPage;
        const std::size_t stride =
            caps_per_page == 0 ? 0 : kGranulesPerPage / caps_per_page;
        auto armPages = [&] {
            for (std::size_t p = 0; p < pages; ++p)
                for (std::size_t k = 0; k < caps_per_page; ++k)
                    ctx.storeCap(c,
                                 off0 + p * kPageSize +
                                     k * stride * kGranuleSize,
                                 v);
        };
        armPages();

        // Revoke-dense paints the victim, so every probe hits and the
        // sweep clears every tag it finds (a quarantine-heavy epoch).
        // The other regimes leave the local bitmap empty: probes read
        // a zero bit, never clear tags, and every repeat sweeps the
        // same population.
        revoker::RevocationBitmap bitmap(ctx.machine().mmu());
        revoker::SweepEngine engine(ctx.machine().mmu(), bitmap);
        sim::SimThread &t = ctx.thread();
        if (revoke_dense)
            bitmap.paint(t, v.base, 64);

        // One untimed warmup pass: faults the sweep's host code and
        // data paths in so the first timed regime isn't cold.
        for (std::size_t p = 0; p < pages; ++p)
            engine.sweepPage(t, first_page + p * kPageSize);

        // Revoke-dense re-arms the tags before each repeat; only the
        // sweep sections are timed (host and simulated alike), so the
        // sim-cycles determinism check still compares pure sweep work.
        double host_secs = 0;
        Cycles sim_cycles = 0;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            if (revoke_dense)
                armPages();
            const Cycles sim_start = ctx.now();
            const auto host_start = std::chrono::steady_clock::now();
            for (std::size_t p = 0; p < pages; ++p)
                engine.sweepPage(t, first_page + p * kPageSize);
            host_secs += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             host_start)
                             .count();
            sim_cycles += ctx.now() - sim_start;
        }

        const double total_pages =
            static_cast<double>(pages) * static_cast<double>(repeats);
        result.host_ns_per_page = host_secs * 1e9 / total_pages;
        result.sim_cycles_per_page =
            static_cast<double>(sim_cycles) / total_pages;
        result.pages_swept = engine.stats().pages_swept;
    });
    m.run();
    return result;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += ch;
        }
    }
    return out;
}

std::string
metricsJson(const core::RunMetrics &m)
{
    trace::MetricsRegistry reg;
    m.exportTo(reg);
    return reg.toJson(/*indent=*/0);
}

} // namespace crev::benchutil
