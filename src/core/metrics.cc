#include "core/metrics.h"

#include <cstdio>

#include "trace/metrics_registry.h"

namespace crev::core {

double
RunMetrics::wallSeconds() const
{
    return static_cast<double>(wall_cycles) / kCyclesPerSecond;
}

double
RunMetrics::revocationsPerSecond() const
{
    const double s = wallSeconds();
    return s > 0 ? static_cast<double>(epochs.size()) / s : 0.0;
}

std::size_t
RunMetrics::degradedEpochs() const
{
    std::size_t n = 0;
    for (const auto &e : epochs)
        if (e.recovery.degraded)
            ++n;
    return n;
}

std::string
RunMetrics::summary() const
{
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "wall=%.3fms cpu=%.3fms bus=%llu rss=%zupg epochs=%zu "
        "revoked=%llu faults=%llu blocked=%llu/%.3fms maxq=%lluB "
        "degraded=%zu",
        cyclesToMillis(wall_cycles), cyclesToMillis(cpu_cycles),
        static_cast<unsigned long long>(bus_transactions_total),
        peak_rss_pages, epochs.size(),
        static_cast<unsigned long long>(sweep.caps_revoked),
        static_cast<unsigned long long>(mmu.load_barrier_faults),
        static_cast<unsigned long long>(quarantine.blocked_ops),
        cyclesToMillis(quarantine.blocked_cycles),
        static_cast<unsigned long long>(
            quarantine.max_quarantine_bytes),
        degradedEpochs());
    return buf;
}

void
RunMetrics::exportTo(trace::MetricsRegistry &reg) const
{
    reg.counter("run.wall_cycles", wall_cycles);
    reg.counter("run.cpu_cycles", cpu_cycles);
    reg.counter("mem.bus_transactions", bus_transactions_total);
    reg.counter("mem.peak_rss_pages", peak_rss_pages);
    for (const auto &[name, busy] : thread_busy)
        reg.counter("run.thread_busy." + name, busy);
    std::uint64_t accesses = 0, l1_misses = 0;
    for (const auto &c : core_mem) {
        accesses += c.accesses;
        l1_misses += c.l1_misses;
    }
    reg.counter("mem.accesses", accesses);
    reg.counter("mem.l1_misses", l1_misses);

    reg.counter("revoker.epochs", epochs.size());
    reg.counter("revoker.degraded_epochs", degradedEpochs());
    reg.gauge("revoker.revocations_per_second", revocationsPerSecond());
    for (const auto &e : epochs) {
        reg.sample("revoker.stw_us", cyclesToMicros(e.stw_duration));
        reg.sample("revoker.concurrent_us",
                   cyclesToMicros(e.concurrent_duration));
        reg.sample("revoker.fault_time_us",
                   cyclesToMicros(e.fault_time_total));
        reg.sample("revoker.faults_per_epoch",
                   static_cast<double>(e.fault_count));
        reg.sample("revoker.pages_per_epoch",
                   static_cast<double>(e.pages_swept));
    }

    reg.counter("sweep.pages_swept", sweep.pages_swept);
    reg.counter("sweep.lines_read", sweep.lines_read);
    reg.counter("sweep.caps_seen", sweep.caps_seen);
    reg.counter("sweep.caps_revoked", sweep.caps_revoked);
    reg.counter("sweep.regs_scanned", sweep.regs_scanned);
    reg.counter("sweep.regs_revoked", sweep.regs_revoked);

    reg.counter("alloc.allocs", allocator.allocs);
    reg.counter("alloc.frees", allocator.frees);
    reg.counter("alloc.bytes_allocated", allocator.bytes_allocated_total);
    reg.counter("alloc.bytes_freed", allocator.bytes_freed_total);
    reg.counter("alloc.shards", alloc_shards.size());
    // Per-shard keys are only emitted for sharded heaps: the
    // single-shard reference model keeps its historical key set.
    if (alloc_shards.size() > 1) {
        for (std::size_t i = 0; i < alloc_shards.size(); ++i) {
            const std::string p =
                "alloc.shard" + std::to_string(i) + ".";
            reg.counter(p + "allocs", alloc_shards[i].allocs);
            reg.counter(p + "frees", alloc_shards[i].frees);
            reg.counter(p + "bytes_allocated",
                        alloc_shards[i].bytes_allocated_total);
            reg.counter(p + "bytes_freed",
                        alloc_shards[i].bytes_freed_total);
        }
    }

    reg.counter("quarantine.revocations_triggered",
                quarantine.revocations_triggered);
    reg.counter("quarantine.sum_freed_bytes", quarantine.sum_freed_bytes);
    reg.counter("quarantine.blocked_ops", quarantine.blocked_ops);
    reg.counter("quarantine.blocked_cycles", quarantine.blocked_cycles);
    reg.counter("quarantine.max_quarantine_bytes",
                quarantine.max_quarantine_bytes);
    reg.counter("quarantine.emergency_reclaims",
                quarantine.emergency_reclaims);
    reg.counter("quarantine.handoff_resends",
                quarantine.handoff_resends);
    reg.counter("quarantine.remote_free_sends",
                quarantine.remote_free_sends);
    reg.counter("quarantine.remote_batches", quarantine.remote_batches);
    reg.counter("quarantine.remote_drained", quarantine.remote_drained);
    if (quarantine_shards.size() > 1) {
        for (std::size_t i = 0; i < quarantine_shards.size(); ++i) {
            const std::string p =
                "quarantine.shard" + std::to_string(i) + ".";
            const alloc::QuarantineShardStats &st =
                quarantine_shards[i];
            reg.counter(p + "remote_sends", st.remote_sends);
            reg.counter(p + "remote_batches", st.remote_batches);
            reg.counter(p + "remote_drained", st.remote_drained);
            reg.counter(p + "triggers", st.triggers);
        }
    }
    if (quarantine.revocations_triggered > 0) {
        const double n =
            static_cast<double>(quarantine.revocations_triggered);
        reg.gauge("quarantine.mean_alloc_at_trigger",
                  static_cast<double>(quarantine.sum_alloc_at_trigger) /
                      n);
        reg.gauge("quarantine.mean_quar_at_trigger",
                  static_cast<double>(quarantine.sum_quar_at_trigger) /
                      n);
    }

    reg.counter("vm.demand_faults", mmu.demand_faults);
    reg.counter("vm.load_barrier_faults", mmu.load_barrier_faults);
    reg.counter("vm.tlb_shootdowns", mmu.tlb_shootdowns);
    reg.counter("vm.shootdown_resends", mmu.shootdown_resends);

    reg.counter("watchdog.deadline_misses", recovery.deadline_misses);
    reg.counter("watchdog.nudges", recovery.nudges);
    reg.counter("watchdog.sweepers_reaped", recovery.sweepers_reaped);
    reg.counter("watchdog.sweepers_respawned",
                recovery.sweepers_respawned);
    reg.counter("watchdog.recovery_requests",
                recovery.recovery_requests);
    reg.counter("watchdog.stw_fallbacks", recovery.stw_fallbacks);
    reg.counter("watchdog.emergency_epochs", recovery.emergency_epochs);
    reg.counter("watchdog.stalled_threads", recovery.stalled_threads);

    reg.counter("chaos.sweeper_stalls", faults_injected.sweeper_stalls);
    reg.counter("chaos.sweeper_kills", faults_injected.sweeper_kills);
    reg.counter("chaos.faults_dropped", faults_injected.faults_dropped);
    reg.counter("chaos.faults_duplicated",
                faults_injected.faults_duplicated);
    reg.counter("chaos.stw_delays", faults_injected.stw_delays);
    reg.counter("chaos.shootdown_drops",
                faults_injected.shootdown_drops);
    reg.counter("chaos.shootdown_lates",
                faults_injected.shootdown_lates);
    reg.counter("chaos.core_stalls", faults_injected.core_stalls);
    reg.counter("chaos.summary_corruptions",
                faults_injected.summary_corruptions);
    reg.counter("chaos.quarantine_drops",
                faults_injected.quarantine_drops);
    reg.counter("chaos.quarantine_duplicates",
                faults_injected.quarantine_duplicates);

    reg.counter("audit.summary_repairs", summary_repairs);
    reg.counter("oracle.loads_checked", oracle_loads_checked);
    reg.counter("oracle.violations", oracle_violations);

    // Per-protocol recovery counters and latency histograms. Every
    // protocol's histogram key is emitted even when no ticket closed,
    // so consumers (and the soak CI gate) can rely on the keys.
    for (unsigned i = 0; i < trace::kNumRecoveryProtocols; ++i) {
        const auto p = static_cast<trace::RecoveryProtocol>(i);
        const std::string prefix =
            std::string("recovery.") + trace::recoveryProtocolName(p);
        const revoker::RecoveryProtocolStats &st =
            recovery_protocols[i];
        reg.counter(prefix + ".tickets", st.tickets);
        reg.counter(prefix + ".attempts", st.attempts);
        reg.counter(prefix + ".successes", st.successes);
        reg.counter(prefix + ".retries_exhausted",
                    st.retries_exhausted);
        reg.counter(prefix + ".deadline_expiries",
                    st.deadline_expiries);
        reg.counter(prefix + ".aborts", st.aborts);
        reg.counter(prefix + ".total_latency_cycles",
                    st.total_latency);
        reg.counter(prefix + ".max_latency_cycles", st.max_latency);
        reg.samples(prefix + ".latency_cycles", recovery_latency[i]);
    }
}

} // namespace crev::core
