/**
 * @file
 * crev_perfbench: runs one workload's cell set for a fixed host-time
 * budget and prints one JSON document with its end-to-end metrics
 * (untraced repetitions) or per-layer metrics (alternating untraced and
 * traced repetitions), plus a fingerprint and headline numbers per
 * cell. run.py builds this binary, checks the cells and prints the
 * benchmark's result line.
 *
 * Usage: crev_perfbench --workload spec|pgbench|grpc --seed N
 *                       --seconds S --trace 0|1 [--spans-out FILE]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/simd.h"
#include "workloads.h"
#include "fingerprint.h"
#include "spans.h"

extern char **environ;

namespace {

using crev::core::Strategy;
using perfbench::Call;
using perfbench::Cell;
using perfbench::CellResult;
using perfbench::Kind;
using perfbench::Recorder;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "crev_perfbench: %s\nusage: crev_perfbench --workload "
                 "spec|pgbench|grpc --seed N --seconds S --trace 0|1 "
                 "[--spans-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("bad --seed");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(a.seconds > 0))
                usage("bad --seconds");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("bad --trace");
            a.trace = v[0] == '1';
        } else if (k == "--spans-out") {
            a.spans_out = v;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    return a;
}

/** Host toggles the benchmark must run at their defaults. */
std::vector<std::string>
crevToggles()
{
    std::vector<std::string> set;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "CREV_", 5) == 0)
            set.emplace_back(*e, std::strcspn(*e, "="));
    return set;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One repetition of the cell set. Only the first keeps each cell's
 *  simulated results; later ones keep fingerprints and host times, so
 *  memory does not grow with the number of repetitions. */
struct Rep
{
    bool traced = false;
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<CellResult> cells;
    std::vector<std::string> fps;
    std::vector<Recorder> recs; //!< traced reps only
};

/** Host seconds of each non-Baseline cell above the Baseline cell with
 *  the same inputs, by strategy key. The rate cell has no Baseline
 *  twin and is left out. */
std::map<std::string, double>
revokerHostSeconds(const std::vector<Cell> &cells, const Rep &rep)
{
    std::map<std::string, double> out;
    std::map<std::string, double> base; // group -> baseline host_s
    auto group = [](const Cell &c) {
        return c.name.substr(0, c.name.rfind('/'));
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (cells[i].strategy == Strategy::kBaseline)
            base[group(cells[i])] = rep.cells[i].host_s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto it = base.find(group(cells[i]));
        if (cells[i].strategy == Strategy::kBaseline || it == base.end())
            continue;
        const double d = rep.cells[i].host_s - it->second;
        out[perfbench::strategyKey(cells[i].strategy)] += d;
        out["all"] += d;
    }
    return out;
}

/** A JSON object of flat numeric, string and nested fields. */
class Obj
{
  public:
    Obj &
    num(const std::string &k, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof(buf), "%.10g", v);
        else
            std::snprintf(buf, sizeof(buf), "null");
        return raw(k, buf);
    }
    Obj &
    str(const std::string &k, const std::string &v)
    {
        std::string e = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                e += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                e += c;
        }
        return raw(k, e + "\"");
    }
    Obj &
    boolean(const std::string &k, bool v)
    {
        return raw(k, v ? "true" : "false");
    }
    Obj &
    raw(const std::string &k, const std::string &v)
    {
        os_ << (first_ ? "" : ", ") << '"' << k << "\": " << v;
        first_ = false;
        return *this;
    }
    std::string
    done() const
    {
        std::string out = "{";
        out += os_.str();
        out += '}';
        return out;
    }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

bool
revokingProfile(const Cell &c)
{
    return c.kind != Kind::kSpec ||
           (c.profile.name != "bzip2" && c.profile.name != "sjeng");
}

/** Whether the cell's loop loads capabilities often enough for every
 *  Reloaded epoch to meet the load barrier (libquantum's 2% does not). */
bool
chasesPointers(const Cell &c)
{
    return c.kind != Kind::kSpec || c.profile.cap_load_rate >= 0.1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (const auto set = crevToggles(); !set.empty()) {
        std::string names;
        for (const auto &n : set)
            names += " " + n;
        std::fprintf(stderr,
                     "crev_perfbench: refusing to run with host toggles "
                     "set in the environment:%s\n",
                     names.c_str());
        return 2;
    }
    const std::vector<Cell> cells = perfbench::cellsFor(args.workload);
    if (cells.empty())
        usage("unknown --workload");

    // --- repetitions, until the next one would overrun the budget ---
    const auto t_start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t_start)
            .count();
    };
    const std::size_t min_reps = args.trace ? 2 : 1;
    std::vector<Rep> reps;
    double longest = 0;
    while (reps.size() < min_reps ||
           elapsed() + longest <= args.seconds) {
        Rep rep;
        // Traced runs alternate untraced and traced repetitions, so
        // both see the same host conditions.
        rep.traced = args.trace && reps.size() % 2 == 1;
        if (rep.traced)
            // The first traced rep keeps the span records written out.
            rep.recs.assign(cells.size(), Recorder(reps.size() == 1));
        const auto t0 = std::chrono::steady_clock::now();
        const double cpu0 = cpuSeconds();
        for (std::size_t i = 0; i < cells.size(); ++i)
            rep.cells.push_back(perfbench::runCell(
                cells[i], args.seed, rep.traced ? &rep.recs[i] : nullptr));
        rep.cpu_s = cpuSeconds() - cpu0;
        rep.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
        longest = std::max(longest, rep.wall_s);
        for (CellResult &c : rep.cells) {
            rep.fps.push_back(perfbench::fingerprint(c.metrics));
            if (!reps.empty()) {
                c.metrics = {};
                c.latency_ms = {};
                c.lag_ms = {};
            }
        }
        std::fprintf(stderr, "  rep %zu (%s): %.3f s\n", reps.size(),
                     rep.traced ? "traced" : "untraced", rep.wall_s);
        reps.push_back(std::move(rep));
    }

    const Rep &ref = reps.front(); // untraced, the simulated reference
    const std::vector<std::string> &fps = ref.fps;

    // --- per-cell output: fingerprint, headline numbers, self-checks ---
    std::string cell_json = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = ref.cells[i];
        const auto &m = r.metrics;
        bool ok = r.ok;
        std::string error = r.error;
        bool stable = true, traced_match = true;
        double closure_err = 0;
        for (std::size_t k = 1; k < reps.size(); ++k) {
            const CellResult &o = reps[k].cells[i];
            ok = ok && o.ok;
            if (error.empty())
                error = o.error;
            const bool same = reps[k].fps[i] == fps[i];
            if (reps[k].traced) {
                traced_match = traced_match && same;
                const Recorder &rec = reps[k].recs[i];
                std::int64_t sum = rec.backgroundNs();
                for (const auto &a : rec.aggregates())
                    sum += a.self_ns;
                const double run_ns = o.run_s * 1e9;
                double err = std::fabs(static_cast<double>(sum) - run_ns) /
                             std::max(run_ns, 1.0);
                if (rec.protocolErrors() != 0 || o.trace_dropped != 0) {
                    std::fprintf(stderr,
                                 "  %s: %llu span protocol errors, %llu "
                                 "trace events dropped\n",
                                 cells[i].name.c_str(),
                                 static_cast<unsigned long long>(
                                     rec.protocolErrors()),
                                 static_cast<unsigned long long>(
                                     o.trace_dropped));
                    err = 1;
                }
                closure_err = std::max(closure_err, err);
            } else {
                stable = stable && same;
            }
        }
        Obj o;
        o.str("name", cells[i].name)
            .str("strategy", perfbench::strategyKey(cells[i].strategy))
            .boolean("revoking_profile", revokingProfile(cells[i]))
            .boolean("chases_pointers", chasesPointers(cells[i]))
            .boolean("ok", ok)
            .str("error", error)
            .str("fingerprint", fps[i])
            .boolean("stable", stable)
            .boolean("traced_match", traced_match)
            .num("closure_error", closure_err)
            .num("wall_ms", crev::cyclesToMillis(m.wall_cycles))
            .num("cpu_ms", crev::cyclesToMillis(m.cpu_cycles))
            .num("bus", static_cast<double>(m.bus_transactions_total))
            .num("rss_pages", static_cast<double>(m.peak_rss_pages))
            .num("epochs", static_cast<double>(m.epochs.size()))
            .num("load_barrier_faults",
                 static_cast<double>(m.mmu.load_barrier_faults))
            .num("host_s", r.host_s);
        cell_json += (i == 0 ? "" : ", ") + o.done();
    }
    cell_json += "]";

    // --- simulated end-to-end metrics (rep 0; deterministic) ---
    // Reloaded against Baseline on the same inputs: per spec profile
    // (geomean over the revoking ones), else the closed-loop cells.
    auto find = [&](const std::string &name) -> const CellResult * {
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].name == name)
                return &ref.cells[i];
        return nullptr;
    };
    std::vector<std::pair<const CellResult *, const CellResult *>> pairs;
    crev::stats::Samples stw_us, lat_ms;
    double thr_num = 0, thr_cycles = 0;
    const CellResult *lat_cell = nullptr;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        if (c.strategy != Strategy::kReloaded)
            continue;
        const std::string group = c.name.substr(0, c.name.rfind('/'));
        const CellResult *base = find(group + "/baseline");
        const CellResult &rel = ref.cells[i];
        if (c.kind == Kind::kPgbenchRate) {
            lat_cell = &rel;
            continue;
        }
        if (c.kind == Kind::kSpec)
            lat_ms.add(crev::cyclesToMillis(rel.metrics.wall_cycles));
        else if (lat_cell == nullptr)
            lat_cell = &rel;
        thr_num += static_cast<double>(rel.completed);
        thr_cycles += static_cast<double>(rel.client_cycles);
        if (revokingProfile(c) && base != nullptr)
            pairs.emplace_back(base, &rel);
    }
    // Reloaded's own pause is a fixed flip-and-register-scan cost, the
    // same in every epoch and every seed; the tail is taken over the
    // pauses of every strategy in the set, which CHERIvoke's and
    // Cornucopia's world-stopped sweeps set.
    for (std::size_t i = 0; i < cells.size(); ++i)
        for (const auto &ep : ref.cells[i].metrics.epochs)
            stw_us.add(crev::cyclesToMicros(ep.stw_duration));
    if (lat_cell != nullptr)
        lat_ms = lat_cell->latency_ms;
    auto overhead_pct = [&](auto field) {
        double log_sum = 0;
        for (const auto &[b, r] : pairs)
            log_sum += std::log(field(r->metrics) / field(b->metrics));
        return pairs.empty()
                   ? 0.0
                   : 100.0 * (std::exp(log_sum / static_cast<double>(
                                                     pairs.size())) -
                              1.0);
    };
    using RM = crev::core::RunMetrics;
    Obj sim;
    sim.num("sim_wall_overhead_pct",
            overhead_pct([](const RM &m) {
                return static_cast<double>(m.wall_cycles);
            }))
        .num("sim_cpu_overhead_pct", overhead_pct([](const RM &m) {
                 return static_cast<double>(m.cpu_cycles);
             }))
        .num("sim_bus_overhead_pct", overhead_pct([](const RM &m) {
                 return static_cast<double>(m.bus_transactions_total);
             }))
        .num("sim_rss_overhead_pct", overhead_pct([](const RM &m) {
                 return static_cast<double>(m.peak_rss_pages);
             }))
        .num("sim_stw_p99_us", stw_us.percentile(0.99))
        .num("sim_latency_p50_ms", lat_ms.percentile(0.50))
        .num("sim_latency_p99_ms", lat_ms.percentile(0.99))
        .num("sim_throughput_per_s",
             thr_cycles > 0
                 ? thr_num / (thr_cycles / crev::kCyclesPerSecond)
                 : 0.0);

    // --- host end-to-end metrics: medians over untraced reps ---
    double sim_mcycles = 0;
    for (const auto &c : ref.cells)
        sim_mcycles += static_cast<double>(c.metrics.wall_cycles) / 1e6;
    std::vector<double> wall, cpu, setup, mcps, lane_cpu;
    std::map<std::string, std::vector<double>> revoker_s;
    for (const Rep &rep : reps) {
        if (rep.traced)
            continue;
        wall.push_back(rep.wall_s);
        cpu.push_back(rep.cpu_s);
        lane_cpu.push_back(rep.cpu_s - rep.wall_s);
        mcps.push_back(sim_mcycles / rep.wall_s);
        double s = 0;
        for (const auto &c : rep.cells)
            s += c.setup_s;
        setup.push_back(s);
        for (const auto &[k, v] : revokerHostSeconds(cells, rep))
            revoker_s[k].push_back(v);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Obj host;
    host.num("host_s", median(wall))
        .num("host_cpu_s", median(cpu))
        .num("sim_mcycles_per_s", median(mcps))
        .num("host_peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
        .num("setup_s", median(setup));

    // --- per-layer metrics ---
    Obj layers;
    if (args.trace) {
        std::vector<double> ctor_ms, traced_wall, background_s;
        std::array<std::vector<double>, perfbench::kNumCalls> self_ns;
        std::array<double, perfbench::kNumCalls> calls{};
        double switches = 0;
        for (const Rep &rep : reps) {
            if (!rep.traced)
                continue;
            traced_wall.push_back(rep.wall_s);
            double ctor = 0, bg = 0;
            std::array<double, perfbench::kNumCalls> self{};
            calls.fill(0);
            switches = 0;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                ctor += rep.cells[i].ctor_s * 1e3;
                bg += static_cast<double>(rep.recs[i].backgroundNs()) / 1e9;
                switches += static_cast<double>(rep.cells[i].switches);
                const auto &agg = rep.recs[i].aggregates();
                for (std::size_t c = 0; c < perfbench::kNumCalls; ++c) {
                    self[c] += static_cast<double>(agg[c].self_ns);
                    calls[c] += static_cast<double>(agg[c].calls);
                }
            }
            ctor_ms.push_back(ctor);
            background_s.push_back(bg);
            for (std::size_t c = 0; c < perfbench::kNumCalls; ++c)
                self_ns[c].push_back(self[c]);
        }
        auto med_self = [&](std::initializer_list<Call> cs) {
            // Median over reps of the summed self time of @p cs.
            std::vector<double> per_rep(self_ns[0].size(), 0.0);
            for (Call c : cs)
                for (std::size_t r = 0; r < per_rep.size(); ++r)
                    per_rep[r] += self_ns[static_cast<std::size_t>(c)][r];
            return median(per_rep);
        };
        auto n_calls = [&](std::initializer_list<Call> cs) {
            double n = 0;
            for (Call c : cs)
                n += calls[static_cast<std::size_t>(c)];
            return n;
        };
        const auto data = {Call::kLoad64, Call::kStore64, Call::kReadBytes,
                           Call::kFill};
        const auto yields = {Call::kCompute, Call::kSleep};
        const auto queue = {Call::kPush, Call::kPop};

        // Simulated per-layer counts from the reference rep.
        double blocked = 0, max_quar = 0, lbf = 0, fault_cycles = 0,
               shootdowns = 0, accesses = 0, l1m = 0, bus = 0, epochs = 0,
               stw = 0, conc = 0, busy = 0, pages = 0, revoked = 0,
               seen = 0, regs = 0, pre_hit = 0, pre_all = 0, memo_hit = 0,
               memo_all = 0;
        for (const auto &c : ref.cells) {
            const auto &m = c.metrics;
            blocked += static_cast<double>(m.quarantine.blocked_cycles);
            max_quar = std::max(
                max_quar,
                static_cast<double>(m.quarantine.max_quarantine_bytes));
            lbf += static_cast<double>(m.mmu.load_barrier_faults);
            shootdowns += static_cast<double>(m.mmu.tlb_shootdowns);
            for (const auto &mc : m.core_mem) {
                accesses += static_cast<double>(mc.accesses);
                l1m += static_cast<double>(mc.l1_misses);
            }
            bus += static_cast<double>(m.bus_transactions_total);
            epochs += static_cast<double>(m.epochs.size());
            for (const auto &ep : m.epochs) {
                fault_cycles += static_cast<double>(ep.fault_time_total);
                stw += static_cast<double>(ep.stw_duration);
                conc += static_cast<double>(ep.concurrent_duration);
            }
            for (const auto &[name, b] : m.thread_busy)
                if (name.rfind("revoker", 0) == 0)
                    busy += static_cast<double>(b);
            pages += static_cast<double>(m.sweep.pages_swept);
            revoked += static_cast<double>(m.sweep.caps_revoked);
            seen += static_cast<double>(m.sweep.caps_seen);
            regs += static_cast<double>(m.sweep.regs_scanned);
            pre_hit += static_cast<double>(m.prescan.validated_hits);
            pre_all += static_cast<double>(m.prescan.validated_hits +
                                           m.prescan.mismatches);
            memo_hit += static_cast<double>(m.memo.page_hits +
                                            m.memo.cand_hits);
            memo_all += static_cast<double>(
                m.memo.page_hits + m.memo.cand_hits + m.memo.cand_misses +
                m.memo.stale_pages);
        }
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        const double rev_all = median(revoker_s["all"]);
        const double lag_p99 = [&] {
            for (std::size_t i = 0; i < cells.size(); ++i)
                if (cells[i].kind == Kind::kPgbenchRate)
                    return ref.cells[i].lag_ms.percentile(0.99);
            return 0.0;
        }();
        const double handoff_ns =
            med_self(yields) + med_self(queue) + median(background_s) * 1e9;

        layers.num("core.machine_ctor_ms", median(ctor_ms))
            .num("alloc.malloc_calls", n_calls({Call::kMalloc}))
            .num("alloc.malloc_self_ns", med_self({Call::kMalloc}))
            .num("alloc.free_calls", n_calls({Call::kFree}))
            .num("alloc.free_self_ns", med_self({Call::kFree}))
            .num("alloc.blocked_cycles", blocked)
            .num("alloc.max_quarantine_bytes", max_quar)
            .num("vm.load_cap_calls", n_calls({Call::kLoadCap}))
            .num("vm.load_cap_self_ns", med_self({Call::kLoadCap}))
            .num("vm.store_cap_calls", n_calls({Call::kStoreCap}))
            .num("vm.store_cap_self_ns", med_self({Call::kStoreCap}))
            .num("vm.load_barrier_faults", lbf)
            .num("vm.fault_cycles", fault_cycles)
            .num("vm.tlb_shootdowns", shootdowns)
            .num("mem.data_calls", n_calls(data))
            .num("mem.data_self_ns", med_self(data))
            .num("mem.accesses", accesses)
            .num("mem.host_ns_per_access",
                 ratio(med_self({Call::kLoadCap, Call::kStoreCap,
                                 Call::kLoad64, Call::kStore64,
                                 Call::kReadBytes, Call::kFill}),
                       accesses))
            .num("mem.l1_miss_ratio", ratio(l1m, accesses))
            .num("mem.bus_transactions", bus)
            .num("revoker.host_s", rev_all)
            .num("revoker.host_s.reloaded", median(revoker_s["reloaded"]))
            .num("revoker.host_s.cornucopia",
                 median(revoker_s["cornucopia"]))
            .num("revoker.host_s.cherivoke", median(revoker_s["cherivoke"]))
            .num("revoker.host_s.paint_sync",
                 median(revoker_s["paint_sync"]))
            .num("revoker.epochs", epochs)
            .num("revoker.stw_cycles", stw)
            .num("revoker.concurrent_cycles", conc)
            .num("revoker.busy_cycles", busy)
            .num("sweep.pages_swept", pages)
            .num("sweep.caps_revoked", revoked)
            .num("sweep.revoke_ratio", ratio(revoked, seen))
            .num("sweep.host_ns_per_page", ratio(rev_all * 1e9, pages))
            .num("prescan.hit_ratio", ratio(pre_hit, pre_all))
            .num("memo.hit_ratio", ratio(memo_hit, memo_all))
            .num("kern.regs_scanned", regs)
            .num("sim.yield_calls", n_calls(yields))
            .num("sim.yield_self_ns", med_self(yields))
            .num("sim.queue_calls", n_calls(queue))
            .num("sim.queue_self_ns", med_self(queue))
            .num("sim.switches", switches)
            .num("sim.host_ns_per_switch", ratio(handoff_ns, switches))
            .num("sim.background_s", median(background_s))
            .num("sim.lane_cpu_s", median(lane_cpu))
            .num("sim.sched_lag_p99_ms", lag_p99)
            .num("trace.overhead_pct",
                 100.0 * (median(traced_wall) / median(wall) - 1.0));
    }

    if (!args.spans_out.empty() && args.trace) {
        if (std::FILE *f = std::fopen(args.spans_out.c_str(), "w")) {
            std::fprintf(f, "cell,span,start_ns,end_ns,parent,txn,thread\n");
            const Rep &traced = reps[1];
            for (std::size_t i = 0; i < cells.size(); ++i)
                perfbench::writeRecords(f, cells[i].name, traced.recs[i]);
            std::fclose(f);
        }
    }

    // --- provenance ---
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
    Obj prov;
    prov.num("nproc", std::thread::hardware_concurrency())
        .num("affinity_cpus", affinity)
        .boolean("fibers", ref.cells.front().fibers)
        .num("lanes", ref.cells.front().lanes)
        .str("simd", crev::simd::levelName(crev::simd::level()))
        .str("build_type", CREV_PERFBENCH_BUILD_TYPE)
        .num("seed", static_cast<double>(args.seed))
        .num("reps_untraced", static_cast<double>(wall.size()))
        .num("reps_traced",
             static_cast<double>(reps.size() - wall.size()));

    Obj doc;
    doc.str("workload", args.workload)
        .boolean("trace", args.trace)
        .raw("provenance", prov.done())
        .raw("host", host.done())
        .raw("sim", sim.done())
        .raw("layers", layers.done())
        .raw("cells", cell_json);
    std::printf("%s\n", doc.done().c_str());
    return 0;
}
