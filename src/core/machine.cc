#include "core/machine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "base/logging.h"
#include "core/mutator.h"
#include "revoker/cheriot_filter.h"
#include "revoker/cherivoke.h"
#include "revoker/cornucopia.h"
#include "revoker/paint_only.h"
#include "revoker/reloaded.h"

namespace crev::core {

const char *
strategyName(Strategy s)
{
    switch (s) {
      case Strategy::kBaseline:
        return "baseline";
      case Strategy::kPaintOnly:
        return "paint+sync";
      case Strategy::kCheriVoke:
        return "cherivoke";
      case Strategy::kCornucopia:
        return "cornucopia";
      case Strategy::kReloaded:
        return "reloaded";
      case Strategy::kCheriotFilter:
        return "cheriot-filter";
    }
    return "?";
}

bool
defaultTrace()
{
    const char *env = std::getenv("CREV_TRACE");
    return env != nullptr && std::strcmp(env, "0") != 0;
}

bool
defaultCheck()
{
    const char *env = std::getenv("CREV_CHECK");
    return env != nullptr && std::strcmp(env, "0") != 0;
}

bool
defaultOracle()
{
    const char *env = std::getenv("CREV_ORACLE");
    return env != nullptr && std::strcmp(env, "0") != 0;
}

unsigned
defaultAllocCores()
{
    if (const char *env = std::getenv("CREV_ALLOC_CORES")) {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1 && v <= 64)
            return static_cast<unsigned>(v);
        warn("ignoring malformed CREV_ALLOC_CORES=%s", env);
    }
    return 1;
}

Machine::Machine(const MachineConfig &cfg) : cfg_(cfg)
{
    if (const std::string err = cfg.faults.validate(); !err.empty())
        throw std::invalid_argument("invalid FaultPlan: " + err);
    if (cfg.trace)
        tracer_ = std::make_unique<trace::Tracer>(
            cfg.trace_buffer_events);
    ms_ = std::make_unique<mem::MemorySystem>(cfg.cores, cfg.l1,
                                              cfg.llc, cfg.latency);
    sched_ = std::make_unique<sim::Scheduler>(cfg.cores, cfg.costs);
    sched_->setTracer(tracer_.get());
    if (cfg.check)
        checker_ = std::make_unique<check::RaceChecker>();
    // Attach before any spawn so every thread gets its HB edges.
    sched_->setChecker(checker_.get());
    as_ = std::make_unique<vm::AddressSpace>(pm_);
    as_->setChecker(checker_.get());
    mmu_ = std::make_unique<vm::Mmu>(pm_, *ms_, *as_, sched_->costs());
    mmu_->setTracer(tracer_.get());
    kernel_ = std::make_unique<kern::Kernel>(*mmu_, sched_->costs());
    kernel_->epoch().setChecker(checker_.get());

    if (cfg.faults.enabled) {
        injector_ = std::make_unique<sim::FaultInjector>(cfg.faults);
        injector_->setTracer(tracer_.get());
        if (cfg.faults.mem_spike_period > 0)
            mmu_->setAccessPenaltyHook([this](sim::SimThread &t) {
                return injector_->memAccessPenalty(t.now());
            });
        // Core stalls are drawn at yield points; the hook only fires
        // for armed nonzero probabilities, so plans without the domain
        // replay their exact decision streams.
        sched_->setStallHook([this](sim::SimThread &t) {
            return injector_->coreStall(t);
        });
        mmu_->setFaultInjector(injector_.get());
    }

    if (cfg.faults.enabled || cfg.watchdog.enabled) {
        recovery_ = std::make_unique<revoker::RecoveryManager>();
        recovery_->setTracer(tracer_.get());
        // The epoch ladder keeps PR-1 timings: its backoff envelope
        // comes from the watchdog policy, and its retry budget is
        // effectively unbounded (the ladder never gives up — safety
        // rungs 3/4 always complete the epoch by fiat).
        revoker::RecoveryPolicy ladder;
        ladder.max_retries = ~0u;
        ladder.deadline = 0;
        ladder.backoff_base = cfg.watchdog.backoff_base;
        ladder.max_backoff = cfg.watchdog.max_backoff;
        recovery_->setPolicy(trace::RecoveryProtocol::kEpochLadder,
                             ladder);
        mmu_->setRecoveryManager(recovery_.get());
    }

    if (cfg.oracle) {
        oracle_ = std::make_unique<check::SafetyOracle>();
        mmu_->setSafetyOracle(oracle_.get());
    }

    const unsigned alloc_shards = std::max(1u, cfg.alloc_cores);
    if (cfg.strategy == Strategy::kBaseline) {
        snm_ = std::make_unique<alloc::SnmallocLite>(*kernel_, *mmu_,
                                                     alloc_shards);
        shim_ = std::make_unique<alloc::QuarantineShim>(
            *snm_, *kernel_, nullptr, nullptr, cfg.policy);
        shim_->setTracer(tracer_.get());
        shim_->setChecker(checker_.get());
        return;
    }

    bitmap_ = std::make_unique<revoker::RevocationBitmap>(*mmu_);
    bitmap_->setTracer(tracer_.get());

    revoker::RevokerOptions opts;
    opts.clean_page_detection = cfg.reloaded_clean_detect;
    opts.always_trap_clean_pages = cfg.always_trap_clean;
    opts.background_sweepers = cfg.background_sweepers;
    opts.audit = cfg.audit;
    opts.injector = injector_.get();
    opts.tracer = tracer_.get();

    switch (cfg.strategy) {
      case Strategy::kPaintOnly:
        revoker_ = std::make_unique<revoker::PaintOnlyRevoker>(
            *sched_, *mmu_, *kernel_, *bitmap_, opts);
        break;
      case Strategy::kCheriVoke:
        revoker_ = std::make_unique<revoker::CheriVokeRevoker>(
            *sched_, *mmu_, *kernel_, *bitmap_, opts);
        break;
      case Strategy::kCornucopia:
        revoker_ = std::make_unique<revoker::CornucopiaRevoker>(
            *sched_, *mmu_, *kernel_, *bitmap_, opts);
        break;
      case Strategy::kReloaded:
        revoker_ = std::make_unique<revoker::ReloadedRevoker>(
            *sched_, *mmu_, *kernel_, *bitmap_, opts);
        break;
      case Strategy::kCheriotFilter:
        revoker_ = std::make_unique<revoker::CheriotFilterRevoker>(
            *sched_, *mmu_, *kernel_, *bitmap_, opts);
        break;
      default:
        panic("unreachable strategy");
    }

    // Wire the load barrier to Reloaded's self-healing handler, or
    // the inline load filter for the CHERIoT-style strategy.
    if (cfg.strategy == Strategy::kReloaded) {
        auto *rel = static_cast<revoker::ReloadedRevoker *>(
            revoker_.get());
        mmu_->setLoadFaultHandler(
            [rel](sim::SimThread &t, Addr va) {
                rel->handleLoadFault(t, va);
            });
    } else if (cfg.strategy == Strategy::kCheriotFilter) {
        auto *chf = static_cast<revoker::CheriotFilterRevoker *>(
            revoker_.get());
        mmu_->setLoadFilter(
            [chf](sim::SimThread &t, const cap::Capability &c) {
                return chf->filterLoad(t, c);
            });
    }

    // Kernel hooks: shadow paints for mapping quarantine (§6.2) and
    // munmap exclusion during sweeps (§4.3).
    kernel_->setShadowHooks(
        [this](sim::SimThread &t, Addr base, Addr len) {
            bitmap_->paint(t, base, len);
        },
        [this](sim::SimThread &t, Addr base, Addr len) {
            bitmap_->clear(t, base, len);
            revoker_->onDequarantine(base, len);
        });
    kernel_->setQuiesceHook([this](sim::SimThread &t) {
        // Loop: waitForEpochCounter(e + 1) can return after the daemon
        // has already opened the NEXT epoch (counter odd again), and a
        // munmap proceeding then would violate the §4.3 exclusion.
        for (;;) {
            const std::uint64_t e = kernel_->epoch().value();
            if ((e & 1) == 0)
                return;
            revoker_->waitForEpochCounter(t, e + 1);
            if (t.scheduler().shuttingDown())
                return;
        }
    });

    // The oracle is never attached for paint-only: its epochs complete
    // without revoking, so committing the audit set would flag legal
    // loads of merely-quarantined objects.
    if (oracle_ && cfg.strategy != Strategy::kPaintOnly)
        revoker_->setOracle(oracle_.get());

    auditor_ = std::make_unique<revoker::Auditor>(*sched_, *mmu_,
                                                  *kernel_, *revoker_);
    auditor_->setFaultInjector(injector_.get());
    auditor_->setRecoveryManager(recovery_.get());
    if (cfg.audit && cfg.strategy != Strategy::kPaintOnly)
        revoker_->setAuditHook([this](sim::SimThread &self) {
            auditor_->check(&self);
        });

    snm_ = std::make_unique<alloc::SnmallocLite>(*kernel_, *mmu_,
                                                 alloc_shards);
    shim_ = std::make_unique<alloc::QuarantineShim>(
        *snm_, *kernel_, revoker_.get(), bitmap_.get(), cfg.policy);
    shim_->setTracer(tracer_.get());
    shim_->setChecker(checker_.get());
    shim_->setFaultInjector(injector_.get());
    shim_->setRecoveryManager(recovery_.get());

    // The revocation service daemon(s).
    sim::SimThread *rev_thread = sched_->spawn(
        "revoker", cfg.revoker_core_mask,
        [this](sim::SimThread &self) { revoker_->daemonBody(self); },
        /*daemon=*/true);
    sched_->setQuantumScale(*rev_thread, cfg.revoker_quantum_scale);

    if (cfg.strategy == Strategy::kReloaded &&
        cfg.background_sweepers > 1) {
        auto *rel = static_cast<revoker::ReloadedRevoker *>(
            revoker_.get());
        for (unsigned i = 1; i < cfg.background_sweepers; ++i) {
            sim::SimThread *helper = sched_->spawn(
                "revoker-helper" + std::to_string(i),
                cfg.revoker_core_mask,
                [rel](sim::SimThread &self) { rel->helperBody(self); },
                /*daemon=*/true);
            sched_->setQuantumScale(*helper,
                                    cfg.revoker_quantum_scale);
            rel->registerSweeper(helper);
        }
    }

    // The epoch watchdog rides along whenever faults can wedge an
    // epoch (or when explicitly enabled); without it, existing runs
    // keep their exact thread set and scheduling order.
    if (cfg.watchdog.enabled || cfg.faults.enabled) {
        watchdog_ = std::make_unique<revoker::EpochWatchdog>(
            *sched_, *revoker_, *mmu_, *kernel_, cfg.watchdog);
        watchdog_->setTracer(tracer_.get());
        watchdog_->setRecoveryManager(recovery_.get());
        if (cfg.strategy == Strategy::kReloaded) {
            auto *rel = static_cast<revoker::ReloadedRevoker *>(
                revoker_.get());
            watchdog_->setRespawnFn(
                [this, rel](sim::SimThread &) -> sim::SimThread * {
                    sim::SimThread *nt = sched_->spawn(
                        "revoker-helper-r" +
                            std::to_string(respawn_count_++),
                        cfg_.revoker_core_mask,
                        [rel](sim::SimThread &self) {
                            rel->helperBody(self);
                        },
                        /*daemon=*/true);
                    sched_->setQuantumScale(
                        *nt, cfg_.revoker_quantum_scale);
                    rel->registerSweeper(nt);
                    return nt;
                });
        }
        sim::SimThread *wd = sched_->spawn(
            "watchdog", cfg.revoker_core_mask,
            [this](sim::SimThread &self) {
                watchdog_->daemonBody(self);
            },
            /*daemon=*/true);
        sched_->setQuantumScale(*wd, cfg.revoker_quantum_scale);
    }
}

Machine::~Machine() = default;

sim::SimThread *
Machine::spawnMutator(std::string name, std::uint32_t core_mask,
                      std::function<void(Mutator &)> body)
{
    mutators_.push_back(
        std::make_unique<Mutator>(*this, cfg_.seed + mutators_.size()));
    Mutator *ctx = mutators_.back().get();
    sim::SimThread *t = sched_->spawn(
        std::move(name), core_mask,
        [ctx, body = std::move(body)](sim::SimThread &self) {
            ctx->thread_ = &self;
            body(*ctx);
        });
    ctx->thread_ = t;
    return t;
}

void
Machine::run()
{
    sched_->run();
}

void
Machine::audit()
{
    if (auditor_)
        auditor_->check();
}

RunMetrics
Machine::metrics() const
{
    RunMetrics m;
    m.wall_cycles = sched_->maxClock();
    for (const auto &t : sched_->threads()) {
        m.thread_busy[t->name()] = t->busyCycles();
        m.cpu_cycles += t->busyCycles();
    }
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        m.core_mem.push_back(ms_->counters(c));
        m.bus_transactions_total += ms_->counters(c).busTransactions();
    }
    m.peak_rss_pages = pm_.peakFrames();
    if (revoker_) {
        m.epochs = revoker_->timings();
        m.sweep = revoker_->sweepStats();
    }
    m.quarantine = shim_->stats();
    m.allocator = snm_->stats();
    for (unsigned s = 0; s < snm_->shardCount(); ++s)
        m.alloc_shards.push_back(snm_->shardStats(s));
    for (unsigned s = 0; s < shim_->shardCount(); ++s)
        m.quarantine_shards.push_back(shim_->shardStats(s));
    m.mmu = mmu_->stats();
    if (watchdog_)
        m.recovery = watchdog_->stats();
    if (injector_)
        m.faults_injected = injector_->counters();
    if (recovery_) {
        for (unsigned i = 0; i < trace::kNumRecoveryProtocols; ++i) {
            const auto p = static_cast<trace::RecoveryProtocol>(i);
            m.recovery_protocols[i] = recovery_->stats(p);
            m.recovery_latency[i] = recovery_->latencies(p);
        }
    }
    if (auditor_)
        m.summary_repairs = auditor_->summaryRepairs();
    if (oracle_) {
        m.oracle_loads_checked = oracle_->loadsChecked();
        m.oracle_violations = oracle_->violations().size() +
                              oracle_->suppressed();
    }
    return m;
}

std::string
Machine::checkReportJson() const
{
    if (!checker_)
        return "";
    return checker_->reportJson();
}

std::string
Machine::oracleReportJson() const
{
    if (!oracle_)
        return "";
    return oracle_->reportJson();
}

std::string
Machine::traceJson() const
{
    if (!tracer_)
        return "";
    std::vector<trace::ThreadInfo> infos;
    for (const auto &t : sched_->threads())
        infos.push_back({t->id(), t->name()});
    return trace::chromeJson(*tracer_, infos);
}

std::string
Machine::traceSummary() const
{
    if (!tracer_)
        return "";
    return trace::phaseSummaryText(trace::summarize(*tracer_));
}

} // namespace crev::core
