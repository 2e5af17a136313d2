#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "core/machine.h"
#include "core/mutator.h"
#include "sim/sync.h"
#include "trace/trace.h"
#include "workload/grpc_qps.h"
#include "workload/pgbench.h"

namespace perfbench {

using crev::Addr;
using crev::Cycles;
using crev::cap::Capability;
using crev::core::Strategy;
namespace core = crev::core;
namespace sim = crev::sim;
namespace workload = crev::workload;

namespace {

/**
 * Operations each SPEC-like profile runs after ramp-up: churn events
 * times ops_per_churn, plus the allocation-free phase. Profiles above
 * the budget (xalancbmk, omnetpp, astar) have their churn and pure_ops
 * shortened in proportion; the live heap, the size mix and every rate
 * stay as calibrated. At this budget xalancbmk and omnetpp still run
 * 9-12 epochs, enough for the geomean overheads to move by about 1%
 * between seeds; at a third of it, 2-3 epochs made them move by 40%.
 */
constexpr double kSpecOpsBudget = 250000;

/**
 * Offered load of the open-loop pgbench cell: 53% of the Baseline
 * unscheduled throughput (about 1,537 simulated tx/s with the default
 * PgbenchConfig), Table 1's middle utilisation. Fixed rather than
 * probed so the cell does not depend on another cell's result.
 */
constexpr double kPgbenchRateTps = 815.0;

/** Events per simulated thread kept by the virtual-time tracer in a
 *  traced cell. Switch counts are read back from the retained events,
 *  so no cell may drop any: the busiest thread (pgbench's revoker)
 *  records about 290,000. */
constexpr std::size_t kTraceBufferEvents = 1u << 19;

/** Every strategy in the fig 1-7 cell sets, Baseline first. */
constexpr Strategy kFiveStrategies[] = {
    Strategy::kBaseline, Strategy::kCheriVoke, Strategy::kCornucopia,
    Strategy::kReloaded, Strategy::kPaintOnly};

/** The Mutator surface the loops use, with a span per call. */
class Ctx
{
  public:
    Ctx(core::Mutator &m, Recorder *rec)
        : m_(m), rec_(rec), tid_(m.thread().id())
    {
    }

    Capability
    malloc(std::size_t n)
    {
        Span s(rec_, tid_, Call::kMalloc);
        return m_.malloc(n);
    }
    void
    free(const Capability &c)
    {
        Span s(rec_, tid_, Call::kFree);
        m_.free(c);
    }
    std::uint64_t
    load64(const Capability &c, Addr off)
    {
        Span s(rec_, tid_, Call::kLoad64);
        return m_.load64(c, off);
    }
    void
    store64(const Capability &c, Addr off, std::uint64_t v)
    {
        Span s(rec_, tid_, Call::kStore64);
        m_.store64(c, off, v);
    }
    Capability
    loadCap(const Capability &c, Addr off)
    {
        Span s(rec_, tid_, Call::kLoadCap);
        return m_.loadCap(c, off);
    }
    void
    storeCap(const Capability &c, Addr off, const Capability &v)
    {
        Span s(rec_, tid_, Call::kStoreCap);
        m_.storeCap(c, off, v);
    }
    void
    fill(const Capability &c, Addr off, std::size_t len, std::uint8_t b)
    {
        Span s(rec_, tid_, Call::kFill);
        m_.fill(c, off, len, b);
    }
    void
    readBytes(const Capability &c, Addr off, std::size_t len)
    {
        Span s(rec_, tid_, Call::kReadBytes);
        m_.readBytes(c, off, len);
    }
    void
    compute(Cycles c)
    {
        Span s(rec_, tid_, Call::kCompute);
        m_.compute(c);
    }
    void
    sleep(Cycles dt)
    {
        Span s(rec_, tid_, Call::kSleep);
        m_.sleep(dt);
    }
    void
    sleepUntil(Cycles t)
    {
        Span s(rec_, tid_, Call::kSleep);
        m_.sleepUntil(t);
    }

    template <typename T>
    void
    push(sim::SimQueue<T> &q, T v, std::uint32_t txn)
    {
        Span s(rec_, tid_, Call::kPush);
        s.setTxn(txn);
        q.push(m_.thread(), std::move(v));
    }
    /** Pop into @p out; @p txn_of names the transaction for the span. */
    template <typename T, typename TxnOf>
    bool
    pop(sim::SimQueue<T> &q, T &out, TxnOf txn_of)
    {
        Span s(rec_, tid_, Call::kPop);
        Cycles enq = 0;
        const bool got = q.pop(m_.thread(), out, enq);
        if (got)
            s.setTxn(txn_of(out));
        return got;
    }

    Cycles now() const { return m_.now(); }
    crev::Rng &rng() { return m_.rng(); }

  private:
    core::Mutator &m_;
    Recorder *rec_;
    unsigned tid_;
};

/** First failure raised inside a simulated thread's body. The
 *  scheduler would log and swallow it; the benchmark counts it. */
struct Failure
{
    bool failed = false;
    std::string what;

    template <typename Fn>
    void
    guard(Fn &&fn)
    {
        try {
            fn();
        } catch (const std::exception &e) {
            if (!failed)
                what = e.what();
            failed = true;
        }
    }
};

// --- spec: mirrors workload::runSpec ---------------------------------

void
spawnSpec(core::Machine &m, const workload::SpecProfile &profile,
          Recorder *rec, Failure &fail)
{
    m.spawnMutator("app", 1u << 3, [&profile, rec,
                                    &fail](core::Mutator &mut) {
        fail.guard([&] {
            Ctx ctx(mut, rec);
            struct Obj
            {
                Capability c;
                std::size_t size;
            };
            auto &rng = ctx.rng();

            double total_w = 0;
            for (const auto &b : profile.sizes)
                total_w += b.weight;
            auto pick_size = [&] {
                double r = rng.uniform() * total_w;
                for (const auto &b : profile.sizes) {
                    if (r < b.weight)
                        return b.size;
                    r -= b.weight;
                }
                return profile.sizes.back().size;
            };

            std::vector<Obj> live;
            live.reserve(profile.target_live);

            auto new_obj = [&] {
                const std::size_t size = pick_size();
                Obj o{ctx.malloc(size), size};
                ctx.store64(o.c, 0, rng.next());
                if (profile.init_fill && size >= 64)
                    ctx.fill(o.c, 32, size - 32, 0);
                return o;
            };

            auto extras = [&](std::uint64_t tick) {
                if (rng.chance(profile.cap_store_rate) &&
                    live.size() > 1) {
                    const auto a = rng.below(live.size());
                    const auto b = rng.below(live.size());
                    if (live[a].size >= 32)
                        ctx.storeCap(live[a].c, 16, live[b].c);
                }
                if (rng.chance(profile.cap_load_rate) && !live.empty()) {
                    const auto a = rng.below(live.size());
                    if (live[a].size >= 32) {
                        const Capability p = ctx.loadCap(live[a].c, 16);
                        if (p.tag)
                            ctx.load64(p, 0);
                    }
                }
                if (rng.chance(profile.data_rate) && !live.empty()) {
                    const auto a = rng.below(live.size());
                    const std::size_t n = std::min(
                        profile.data_touch_bytes, live[a].size);
                    const Addr max_off = live[a].size - n;
                    const Addr off =
                        max_off == 0 ? 0
                                     : 8 * rng.below(max_off / 8 + 1);
                    if (rng.chance(0.5) || off <= 24)
                        ctx.readBytes(live[a].c, off, n);
                    else
                        ctx.fill(live[a].c, off, n,
                                 static_cast<std::uint8_t>(tick));
                }
                ctx.compute(profile.compute_per_op);
            };

            for (std::size_t i = 0; i < profile.target_live; ++i)
                live.push_back(new_obj());
            for (std::uint64_t n = 0; n < profile.total_allocs; ++n) {
                const auto idx = rng.below(live.size());
                ctx.free(live[idx].c);
                live[idx] = new_obj();
                for (unsigned k = 0; k < profile.ops_per_churn; ++k)
                    extras(n);
            }
            for (std::uint64_t n = 0; n < profile.pure_ops; ++n)
                extras(n);
        });
    });
}

// --- pgbench: mirrors workload::runPgbench ---------------------------

struct TxRequest
{
    std::uint32_t id = 0;
    Cycles sent_at = 0;
    Cycles scheduled_at = 0;
};

struct PgbenchState
{
    sim::SimQueue<TxRequest> requests;
    sim::SimQueue<TxRequest> replies;
};

void
spawnPgbench(core::Machine &m, const workload::PgbenchConfig &cfg,
             PgbenchState &st, CellResult &out, Recorder *rec,
             Failure &fail)
{
    m.spawnMutator("pg-server", 1u << 3, [&cfg, &st, rec,
                                          &fail](core::Mutator &mut) {
        fail.guard([&] {
            Ctx ctx(mut, rec);
            auto &rng = ctx.rng();
            struct Obj
            {
                Capability c;
                std::size_t size;
            };
            std::vector<Obj> session;
            for (int i = 0; i < 800; ++i) {
                const std::size_t size = 1024 << rng.below(2);
                session.push_back({ctx.malloc(size), size});
                ctx.store64(session.back().c, 0, i);
            }
            std::vector<Obj> tx_objs;
            tx_objs.reserve(cfg.allocs_per_tx);
            const auto id_of = [](const TxRequest &r) { return r.id; };

            for (std::uint32_t done = 0; done < cfg.transactions; ++done) {
                TxRequest req;
                if (!ctx.pop(st.requests, req, id_of))
                    return;
                tx_objs.clear();
                for (unsigned a = 0; a < cfg.allocs_per_tx; ++a) {
                    const std::size_t size = 256u << rng.below(4);
                    tx_objs.push_back({ctx.malloc(size), size});
                    ctx.store64(tx_objs.back().c, 0, req.id);
                    ctx.storeCap(tx_objs.back().c, 16,
                                 a > 0 ? tx_objs[a - 1].c
                                       : Capability::null());
                }
                Capability p = tx_objs.back().c;
                for (unsigned hops = 0; hops < cfg.allocs_per_tx; ++hops) {
                    const Capability next = ctx.loadCap(p, 16);
                    if (!next.tag)
                        break;
                    ctx.store64(next, 8, req.id);
                    p = next;
                }
                for (int k = 0; k < 12; ++k) {
                    const auto &o = session[rng.below(session.size())];
                    ctx.readBytes(o.c, 0,
                                  std::min<std::size_t>(o.size, 1024));
                }
                for (int k = 0; k < 10; ++k) {
                    const auto &o = session[rng.below(session.size())];
                    ctx.storeCap(o.c, 16,
                                 tx_objs[rng.below(tx_objs.size())].c);
                }
                if (rng.chance(0.1)) {
                    const auto idx = rng.below(session.size());
                    ctx.free(session[idx].c);
                    const std::size_t size = 1024 << rng.below(2);
                    session[idx] = {ctx.malloc(size), size};
                    ctx.store64(session[idx].c, 0, req.id);
                }
                ctx.compute(cfg.compute_per_tx);
                for (auto &o : tx_objs)
                    ctx.free(o.c);
                ctx.push(st.replies, req, req.id);
            }
        });
    });

    m.spawnMutator("pg-client", 1u << 0, [&cfg, &st, &out, rec,
                                          &fail](core::Mutator &mut) {
        fail.guard([&] {
            Ctx ctx(mut, rec);
            auto &rng = ctx.rng();
            const Cycles start = ctx.now();
            const double cycles_per_tx =
                cfg.rate_tps > 0 ? crev::kCyclesPerSecond / cfg.rate_tps
                                 : 0;
            const auto id_of = [](const TxRequest &r) { return r.id; };

            for (std::uint32_t n = 0; n < cfg.transactions; ++n) {
                Cycles due = 0;
                if (cfg.rate_tps > 0) {
                    // Fixed a-priori schedule (pgbench --rate); the
                    // latency clock starts when the transaction was due.
                    due = start + static_cast<Cycles>(
                                      cycles_per_tx *
                                      static_cast<double>(n));
                    if (ctx.now() < due)
                        ctx.sleepUntil(due);
                    const Cycles actual = ctx.now();
                    out.lag_ms.add(crev::cyclesToMillis(actual - due));
                    ctx.push(st.requests, TxRequest{n, actual, due}, n);
                } else {
                    const Cycles think =
                        cfg.think_cycles / 2 + rng.below(cfg.think_cycles);
                    ctx.sleep(think);
                    due = ctx.now();
                    ctx.push(st.requests, TxRequest{n, due, due}, n);
                }
                TxRequest reply;
                if (!ctx.pop(st.replies, reply, id_of))
                    return;
                out.latency_ms.add(
                    crev::cyclesToMillis(ctx.now() - reply.scheduled_at));
                ++out.completed;
            }
            out.client_cycles = ctx.now() - start;
        });
    });
}

// --- grpc: mirrors workload::runGrpcQps ------------------------------

struct Message
{
    std::uint32_t id = 0;
    Cycles sent_at = 0;
    bool shutdown = false;
};

struct GrpcState
{
    sim::SimQueue<Message> requests;
    sim::SimQueue<Message> replies;
};

void
spawnGrpc(core::Machine &m, const workload::GrpcConfig &cfg,
          GrpcState &st, CellResult &out, Recorder *rec, Failure &fail)
{
    const auto id_of = [](const Message &msg) { return msg.id; };
    for (unsigned s = 0; s < cfg.server_threads; ++s) {
        m.spawnMutator(
            "grpc-server" + std::to_string(s), cfg.server_core_mask,
            [&cfg, &st, rec, &fail, id_of](core::Mutator &mut) {
                fail.guard([&] {
                    Ctx ctx(mut, rec);
                    auto &rng = ctx.rng();
                    struct Obj
                    {
                        Capability c;
                        std::size_t size;
                    };
                    std::vector<Obj> session;
                    for (int i = 0; i < 1200; ++i) {
                        const std::size_t size = 2048 << rng.below(2);
                        session.push_back({ctx.malloc(size), size});
                        ctx.store64(session.back().c, 0, i);
                    }
                    for (;;) {
                        Message msg;
                        if (!ctx.pop(st.requests, msg, id_of) ||
                            msg.shutdown)
                            return;
                        std::vector<Obj> bufs;
                        bufs.reserve(cfg.allocs_per_msg);
                        for (unsigned a = 0; a < cfg.allocs_per_msg; ++a) {
                            const std::size_t size = 128u << rng.below(4);
                            bufs.push_back({ctx.malloc(size), size});
                            ctx.store64(bufs.back().c, 0, msg.id);
                            ctx.storeCap(bufs.back().c, 16,
                                         a > 0 ? bufs[a - 1].c
                                               : Capability::null());
                        }
                        for (int k = 0; k < 3; ++k) {
                            const auto &o =
                                session[rng.below(session.size())];
                            ctx.readBytes(
                                o.c, 0,
                                std::min<std::size_t>(o.size, 256));
                        }
                        ctx.compute(cfg.compute_per_msg);
                        for (auto &b : bufs)
                            ctx.free(b.c);
                        ctx.push(st.replies, msg, msg.id);
                    }
                });
            });
    }

    m.spawnMutator("grpc-client", 1u << 0, [&cfg, &st, &out, rec, &fail,
                                            id_of](core::Mutator &mut) {
        fail.guard([&] {
            Ctx ctx(mut, rec);
            const Cycles start = ctx.now();
            std::uint32_t sent = 0;
            const std::uint32_t initial = std::min<std::uint32_t>(
                cfg.outstanding, cfg.total_messages);
            for (; sent < initial; ++sent)
                ctx.push(st.requests, Message{sent, ctx.now(), false},
                         sent);
            while (out.completed < cfg.total_messages) {
                Message reply;
                if (!ctx.pop(st.replies, reply, id_of))
                    break;
                ++out.completed;
                out.latency_ms.add(
                    crev::cyclesToMillis(ctx.now() - reply.sent_at));
                if (sent < cfg.total_messages) {
                    ctx.push(st.requests, Message{sent, ctx.now(), false},
                             sent);
                    ++sent;
                }
            }
            out.client_cycles = ctx.now() - start;
            for (unsigned s = 0; s < cfg.server_threads; ++s)
                ctx.push(st.requests, Message{0, 0, true}, 0);
        });
    });
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

double
secondsSince(std::chrono::steady_clock::time_point t)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t)
        .count();
}

} // namespace

const char *
strategyKey(Strategy s)
{
    return s == Strategy::kPaintOnly ? "paint_sync" : core::strategyName(s);
}

std::vector<Cell>
cellsFor(const std::string &workload)
{
    std::vector<Cell> cells;
    if (workload == "spec") {
        for (const auto &p : workload::specProfiles()) {
            const double ops =
                static_cast<double>(p.total_allocs * p.ops_per_churn +
                                    p.pure_ops);
            const double keep = std::min(1.0, kSpecOpsBudget / ops);
            workload::SpecProfile scaled = p;
            scaled.total_allocs = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(p.total_allocs) * keep));
            scaled.pure_ops = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(p.pure_ops) * keep));
            for (Strategy s : kFiveStrategies)
                cells.push_back(Cell{"spec/" + p.name + "/" + strategyKey(s),
                                     Kind::kSpec, s, scaled});
        }
    } else if (workload == "pgbench") {
        for (Strategy s : kFiveStrategies)
            cells.push_back(Cell{std::string("pgbench/closed/") +
                                     strategyKey(s),
                                 Kind::kPgbench, s, {}});
        cells.push_back(Cell{"pgbench/rate/reloaded", Kind::kPgbenchRate,
                             Strategy::kReloaded, {}});
    } else if (workload == "grpc") {
        // Fig 8's four strategies, plus Paint+sync so every strategy's
        // revoker host time is measured on every workload.
        for (Strategy s : kFiveStrategies)
            cells.push_back(Cell{std::string("grpc/closed/") +
                                     strategyKey(s),
                                 Kind::kGrpc, s, {}});
    }
    return cells;
}

CellResult
runCell(const Cell &cell, std::uint64_t seed, Recorder *rec)
{
    CellResult out;
    const auto t0 = std::chrono::steady_clock::now();
    Failure fail;
    try {
        core::MachineConfig mc;
        mc.strategy = cell.strategy;
        mc.seed = seed;
        mc.trace = rec != nullptr;
        mc.trace_buffer_events = kTraceBufferEvents;
        // The default lane count follows the online CPU count; keep the
        // lanes, the process's only extra host threads, within nproc.
        static const unsigned cpus = affinityCpus();
        mc.par_cores = std::min(mc.par_cores, cpus);

        workload::PgbenchConfig pg;
        workload::GrpcConfig grpc;
        switch (cell.kind) {
          case Kind::kSpec:
            mc.policy = workload::specPolicy();
            break;
          case Kind::kPgbench:
          case Kind::kPgbenchRate:
            if (cell.kind == Kind::kPgbenchRate)
                pg.rate_tps = kPgbenchRateTps;
            mc.policy = workload::pgbenchPolicy();
            // As runPgbench: a cache hierarchy scaled with the heap.
            mc.l1 = crev::mem::CacheConfig{16 * 1024, 4};
            mc.llc = crev::mem::CacheConfig{128 * 1024, 8};
            break;
          case Kind::kGrpc:
            mc.policy = workload::grpcPolicy();
            mc.revoker_core_mask = grpc.server_core_mask;
            mc.revoker_quantum_scale = grpc.revoker_quantum_scale;
            break;
        }

        // The queues outlive the machine whose threads use them.
        PgbenchState pg_state;
        GrpcState grpc_state;
        core::Machine m(mc);
        out.ctor_s = secondsSince(t0);
        switch (cell.kind) {
          case Kind::kSpec:
            spawnSpec(m, cell.profile, rec, fail);
            break;
          case Kind::kPgbench:
          case Kind::kPgbenchRate:
            spawnPgbench(m, pg, pg_state, out, rec, fail);
            break;
          case Kind::kGrpc:
            spawnGrpc(m, grpc, grpc_state, out, rec, fail);
            break;
        }
        out.setup_s = secondsSince(t0);
        out.fibers = m.scheduler().fibers();
        out.lanes = m.scheduler().laneCount();

        const auto t_run = std::chrono::steady_clock::now();
        if (rec != nullptr)
            rec->beginRun();
        m.run();
        if (rec != nullptr)
            rec->endRun();
        out.run_s = secondsSince(t_run);
        out.metrics = m.metrics();

        if (const crev::trace::Tracer *tr = m.tracerOrNull()) {
            out.trace_dropped = tr->totalDropped();
            for (std::size_t tid = 0; tid < tr->numThreads(); ++tid)
                if (const auto *buf = tr->buffer(tid))
                    buf->forEach([&out](const crev::trace::Event &e) {
                        if (e.type == crev::trace::EventType::kThreadRun)
                            ++out.switches;
                    });
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    if (fail.failed) {
        out.ok = false;
        out.error = fail.what;
    }
    if (cell.kind == Kind::kSpec) {
        out.completed = out.metrics.allocator.allocs;
        out.client_cycles = out.metrics.wall_cycles;
    }
    out.host_s = secondsSince(t0);
    return out;
}

} // namespace perfbench
