/**
 * @file
 * Host-parallel execution of independent bench cells.
 *
 * A *cell* is one (strategy x workload x config) simulation. Cells
 * never share mutable state — each owns its Machine — so they can run
 * concurrently on host threads without affecting any simulated result:
 * every cell's virtual-time execution is bit-identical to a serial
 * run. The runner records host wall-seconds per cell and preserves
 * submission order in its results, so bench output stays
 * deterministic regardless of scheduling.
 *
 * Also here: the sweep-throughput harness used by the microbenchmarks
 * and BENCH_*.json trajectory files (DESIGN.md §9 describes the file
 * format and the simulated-vs-host cost separation rule).
 */

#ifndef CREV_BENCH_BENCH_RUNNER_H_
#define CREV_BENCH_BENCH_RUNNER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/machine.h"

namespace crev::benchutil {

/**
 * Host CPUs this process may run on: hardware concurrency capped at
 * the process's CPU-affinity set (min 1).
 */
unsigned hostCpus();

/**
 * Worker count for host-parallel benching: the CREV_BENCH_THREADS
 * environment variable when set, else hostCpus().
 */
unsigned benchThreads();

/**
 * Run fn(i) for every i in [0, n) across @p threads host threads
 * (0 = benchThreads()). Results land at their own index, so output
 * order is deterministic. fn must not touch shared mutable state.
 *
 * @p threads == 0 always executes on spawned workers, even when the
 * pool has a single slot: the pooled configuration must measure the
 * pool path (worker stacks, per-thread malloc arenas), not silently
 * degrade to the caller's thread. An explicit 1 runs inline.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn fn, unsigned threads = 0)
    -> std::vector<decltype(fn(std::size_t{0}))>
{
    using R = decltype(fn(std::size_t{0}));
    std::vector<R> out(n);
    if (n == 0)
        return out;
    const bool always_pool = threads == 0;
    unsigned workers = threads != 0 ? threads : benchThreads();
    if (workers > n)
        workers = static_cast<unsigned>(n);
    if (workers <= 1 && !always_pool) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = fn(i);
        return out;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                out[i] = fn(i);
            }
        });
    for (auto &t : pool)
        t.join();
    return out;
}

/** One completed bench cell. */
struct CellResult
{
    std::string name;
    double host_seconds = 0; //!< host wall time of this cell alone
    core::RunMetrics metrics;
};

/**
 * Collects named cells, then runs them across a host thread pool.
 * Results come back in submission order.
 *
 * Cells are *started* longest-expected-first: with cells spanning two
 * orders of magnitude in runtime, submission-order scheduling
 * routinely strands one slow cell on an otherwise idle pool at the
 * tail. Expected costs come from the most recent "host_seconds"
 * recorded per cell name in a prior trajectory file (setCostFile),
 * falling back to a static strategy/workload weight table for cells
 * never measured. Scheduling order never touches results: each cell
 * owns its Machine and lands at its submission index.
 */
class ParallelRunner
{
  public:
    void add(std::string name, std::function<core::RunMetrics()> fn);

    /**
     * Trajectory file to read expected per-cell costs from (default
     * BENCH_TRAJECTORY.json in the working directory; missing or
     * unparsable files just mean the static fallback costs).
     */
    void setCostFile(std::string path) { cost_file_ = std::move(path); }

    /** Run all cells on @p threads workers (0 = benchThreads(),
     *  always on spawned pool workers — see parallelMap). */
    std::vector<CellResult> run(unsigned threads = 0);

    std::size_t size() const { return cells_.size(); }

  private:
    struct Cell
    {
        std::string name;
        std::function<core::RunMetrics()> fn;
    };
    std::vector<Cell> cells_;
    std::string cost_file_ = "BENCH_TRAJECTORY.json";
};

// --- sweep-throughput harness (microbench + BENCH_*.json) ---

/** Tag population of the pages the sweep harness scans. */
enum class SweepRegime {
    kClean,       //!< no tagged granules anywhere
    kSparse,      //!< 8 scattered capabilities per page
    kFull,        //!< every granule tagged (256 per page)
    kRevokeDense, //!< 64 caps per page, all aimed at painted memory:
                  //!< every probe hits and every tag is cleared, so
                  //!< the harness re-arms the pages (untimed) before
                  //!< each timed repeat
};

const char *sweepRegimeName(SweepRegime r);

/** One harness measurement. */
struct SweepRegimeResult
{
    double host_ns_per_page = 0;
    double sim_cycles_per_page = 0;
    std::uint64_t pages_swept = 0;
};

/**
 * Sweep @p pages resident pages populated per @p regime, @p repeats
 * times over, and report host ns and simulated cycles per page.
 * Simulated cycles per page are a pure function of the regime, so
 * repeated measurements must agree on them; only host ns may differ.
 */
SweepRegimeResult measureSweepRegime(SweepRegime regime,
                                     std::size_t pages = 64,
                                     std::size_t repeats = 40);

/** Minimal JSON string escaping for bench report writers. */
std::string jsonEscape(const std::string &s);

/** All metrics of one cell as a compact MetricsRegistry JSON object
 *  ({"counters": ..., "gauges": ..., "histograms": ...}). */
std::string metricsJson(const core::RunMetrics &m);

} // namespace crev::benchutil

#endif // CREV_BENCH_BENCH_RUNNER_H_
