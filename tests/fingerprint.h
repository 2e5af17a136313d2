/**
 * @file
 * Shared test fixtures for whole-machine equivalence checks: the
 * RunMetrics fingerprint, its 64-bit hash, and the chaos-campaign
 * churn workload and fault plan.
 *
 * The fingerprint serialises every simulated observable of a run, so
 * two runs that differ in any simulated number produce different
 * strings. determinism_test compares fingerprints across host-side
 * configurations; golden_test compares their hashes against a
 * checked-in table.
 *
 * Also the cross-core producer/consumer churn, where most objects
 * are freed on a different core than the one that allocated them.
 */

#ifndef CREV_TESTS_FINGERPRINT_H_
#define CREV_TESTS_FINGERPRINT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"
#include "workload/spec.h"

namespace crev::test {

/** Serialise every simulated field of RunMetrics: any observable that
 *  drifts between two runs shows up as a diff. */
inline std::string
fingerprint(const core::RunMetrics &m)
{
    std::ostringstream os;
    os << "wall=" << m.wall_cycles << " cpu=" << m.cpu_cycles << "\n";
    for (const auto &[name, busy] : m.thread_busy)
        os << "busy[" << name << "]=" << busy << "\n";
    for (std::size_t c = 0; c < m.core_mem.size(); ++c) {
        const auto &mc = m.core_mem[c];
        os << "core" << c << " acc=" << mc.accesses
           << " l1m=" << mc.l1_misses << " br=" << mc.bus_reads
           << " bw=" << mc.bus_writes << "\n";
    }
    os << "bus=" << m.bus_transactions_total
       << " rss=" << m.peak_rss_pages << "\n";
    for (std::size_t e = 0; e < m.epochs.size(); ++e) {
        const auto &ep = m.epochs[e];
        os << "epoch" << e << " stw=" << ep.stw_duration
           << " conc=" << ep.concurrent_duration
           << " ft=" << ep.fault_time_total
           << " fc=" << ep.fault_count << " pg=" << ep.pages_swept
           << " rv=" << ep.caps_revoked
           << " deg=" << ep.recovery.degraded
           << " forced=" << ep.recovery.forced
           << " nudges=" << ep.recovery.nudges
           << " respawns=" << ep.recovery.respawns << "\n";
    }
    os << "sweep pg=" << m.sweep.pages_swept
       << " ln=" << m.sweep.lines_read << " seen=" << m.sweep.caps_seen
       << " rv=" << m.sweep.caps_revoked
       << " rs=" << m.sweep.regs_scanned
       << " rr=" << m.sweep.regs_revoked << "\n";
    os << "quar trig=" << m.quarantine.revocations_triggered
       << " freed=" << m.quarantine.sum_freed_bytes
       << " alloc@=" << m.quarantine.sum_alloc_at_trigger
       << " quar@=" << m.quarantine.sum_quar_at_trigger
       << " blk=" << m.quarantine.blocked_ops
       << " blkcyc=" << m.quarantine.blocked_cycles
       << " max=" << m.quarantine.max_quarantine_bytes << "\n";
    os << "alloc a=" << m.allocator.allocs
       << " f=" << m.allocator.frees
       << " ba=" << m.allocator.bytes_allocated_total
       << " bf=" << m.allocator.bytes_freed_total << "\n";
    os << "mmu df=" << m.mmu.demand_faults
       << " lbf=" << m.mmu.load_barrier_faults
       << " shoot=" << m.mmu.tlb_shootdowns
       << " resend=" << m.mmu.shootdown_resends << "\n";
    os << "recov miss=" << m.recovery.deadline_misses
       << " nudge=" << m.recovery.nudges
       << " reap=" << m.recovery.sweepers_reaped
       << " resp=" << m.recovery.sweepers_respawned
       << " req=" << m.recovery.recovery_requests
       << " stw=" << m.recovery.stw_fallbacks
       << " emerg=" << m.recovery.emergency_epochs
       << " stallt=" << m.recovery.stalled_threads << "\n";
    os << "inj stall=" << m.faults_injected.sweeper_stalls
       << " kill=" << m.faults_injected.sweeper_kills
       << " drop=" << m.faults_injected.faults_dropped
       << " dup=" << m.faults_injected.faults_duplicated
       << " delay=" << m.faults_injected.stw_delays
       << " sdrop=" << m.faults_injected.shootdown_drops
       << " slate=" << m.faults_injected.shootdown_lates
       << " cstall=" << m.faults_injected.core_stalls
       << " corrupt=" << m.faults_injected.summary_corruptions
       << " qdrop=" << m.faults_injected.quarantine_drops
       << " qdup=" << m.faults_injected.quarantine_duplicates << "\n";
    os << "heal repairs=" << m.summary_repairs
       << " ereclaim=" << m.quarantine.emergency_reclaims
       << " hresend=" << m.quarantine.handoff_resends << "\n";
    for (unsigned i = 0; i < trace::kNumRecoveryProtocols; ++i) {
        const auto &p = m.recovery_protocols[i];
        os << "rp[" << trace::recoveryProtocolName(
                           static_cast<trace::RecoveryProtocol>(i))
           << "] t=" << p.tickets << " a=" << p.attempts
           << " s=" << p.successes << " re=" << p.retries_exhausted
           << " de=" << p.deadline_expiries << " ab=" << p.aborts
           << " lat=" << p.total_latency << "/" << p.max_latency
           << "\n";
    }
    // Deliberately excluded: m.oracle_* (observer totals that count
    // only when the oracle is attached). Everything above is a
    // simulated observable and must be bit-identical across host-side
    // and observer configuration changes.
    return os.str();
}

/** FNV-1a 64-bit hash of a fingerprint, as 16 hex digits. */
inline std::string
fingerprintHash(const std::string &fp)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : fp) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Heap churn with capability links, register parking, and hoards —
 *  the chaos campaign's mix, shrunk to gate size. */
inline void
churn(core::Machine &m, core::Mutator &ctx, int iters)
{
    struct Obj
    {
        cap::Capability c;
        std::size_t size;
    };
    std::vector<Obj> live;
    auto &rng = ctx.rng();

    for (int i = 0; i < iters; ++i) {
        const double dice = rng.uniform();
        if (dice < 0.45 || live.size() < 4) {
            const std::size_t size = 16 << rng.below(7);
            live.push_back({ctx.malloc(size), size});
            ctx.store64(live.back().c, 0, static_cast<uint64_t>(i));
        } else if (dice < 0.80) {
            const std::size_t idx = rng.below(live.size());
            ctx.free(live[idx].c);
            live[idx] = live.back();
            live.pop_back();
        } else if (dice < 0.90) {
            const std::size_t a = rng.below(live.size());
            const std::size_t b = rng.below(live.size());
            if (live[a].size >= 32) {
                ctx.storeCap(live[a].c, 16, live[b].c);
                ASSERT_TRUE(ctx.loadCap(live[a].c, 16).tag);
            }
        } else if (dice < 0.95) {
            ctx.thread().reg(1 + rng.below(8)) =
                live[rng.below(live.size())].c;
        } else {
            const std::size_t slot =
                ctx.hoardPut(live[rng.below(live.size())].c);
            ASSERT_TRUE(ctx.hoardTake(slot).tag);
        }
    }
    for (auto &o : live)
        ctx.free(o.c);
    m.heap().drain(ctx.thread());
}

/** The chaos plan: every fault domain armed, per-epoch audit on, two
 *  background sweepers, and a small quarantine so epochs are frequent.
 *  Run it with churn(m, ctx, 800) on an "app" mutator pinned to
 *  core 3. */
inline core::MachineConfig
chaosConfig(core::Strategy s)
{
    core::MachineConfig cfg;
    cfg.strategy = s;
    cfg.audit = true;
    cfg.policy.min_bytes = 32 * 1024; // revoke frequently
    cfg.background_sweepers = 2;
    cfg.seed = 42;
    cfg.faults.enabled = true;
    cfg.faults.seed = 909;
    cfg.faults.sweeper_stall_prob = 0.05;
    cfg.faults.sweeper_stall_cycles = 250'000;
    cfg.faults.sweeper_kill_prob = 0.10;
    cfg.faults.max_sweeper_kills = 1;
    cfg.faults.fault_drop_prob = 0.10;
    cfg.faults.max_fault_drops = 4;
    cfg.faults.fault_duplicate_prob = 0.10;
    cfg.faults.stw_delay_prob = 0.25;
    cfg.faults.stw_delay_cycles = 25'000;
    // The later fault domains, all armed: the contract covers every
    // recovery path (shootdown re-send, summary repair, quarantine
    // hand-off re-delivery, core stalls).
    cfg.faults.shootdown_drop_prob = 0.2;
    cfg.faults.shootdown_late_prob = 0.2;
    cfg.faults.shootdown_late_cycles = 10'000;
    cfg.faults.core_stall_prob = 0.005;
    cfg.faults.core_stall_cycles = 100'000;
    cfg.faults.summary_corrupt_prob = 0.25;
    cfg.faults.quarantine_drop_prob = 0.25;
    cfg.faults.quarantine_duplicate_prob = 0.25;
    return cfg;
}

/** Build @p cfg's machine, run the chaos churn on it, and return the
 *  metrics. */
inline core::RunMetrics
runChaos(const core::MachineConfig &cfg)
{
    core::Machine m(cfg);
    m.spawnMutator("app", 1u << 3,
                   [&](core::Mutator &ctx) { churn(m, ctx, 800); });
    m.run();
    return m.metrics();
}

/** Producer/consumer churn where the bulk of frees happen on a
 *  different core than the allocation, so both cores contend for the
 *  one heap lock. Exactly one simulated thread runs at a time, so the
 *  shared host-side queue needs no host locking and hand-off order is
 *  fully scheduler-determined. */
inline void
crossCoreChurn(core::Machine &m, int iters)
{
    auto queue = std::make_shared<std::vector<cap::Capability>>();
    auto produced = std::make_shared<int>(0);
    m.spawnMutator("prod", 1u << 0, [=](core::Mutator &ctx) {
        for (int i = 0; i < iters; ++i) {
            const std::size_t size = 16 << ctx.rng().below(6);
            cap::Capability c = ctx.malloc(size);
            ctx.store64(c, 0, static_cast<std::uint64_t>(i));
            queue->push_back(c);
            ++*produced;
            ctx.compute(150);
            if (i % 8 == 0) // every eighth object dies locally
                ctx.free(ctx.malloc(96));
        }
    });
    m.spawnMutator("cons", 1u << 1, [=, &m](core::Mutator &ctx) {
        std::size_t taken = 0;
        while (taken < static_cast<std::size_t>(iters)) {
            if (taken < queue->size()) {
                // Copy out: free() yields, and the producer's
                // push_back may reallocate the vector meanwhile.
                const cap::Capability c = queue->at(taken);
                ctx.load64(c, 0); // touch before free
                ctx.free(c);
                ++taken;
                ctx.compute(120);
            } else {
                ctx.compute(400); // producer behind; spin virtually
            }
        }
        m.heap().drain(ctx.thread());
    });
}

/** The cross-core churn's machine: with @p chaos, most fault domains
 *  armed plus the audit. Run it with runCrossCore(). */
inline core::MachineConfig
crossCoreConfig(core::Strategy s, bool chaos)
{
    core::MachineConfig cfg;
    cfg.strategy = s;
    cfg.policy = workload::specPolicy();
    cfg.policy.min_bytes = 32 * 1024;
    cfg.seed = 7;
    if (chaos) {
        cfg.audit = true;
        cfg.background_sweepers = 2;
        cfg.faults.enabled = true;
        cfg.faults.seed = 909;
        cfg.faults.sweeper_stall_prob = 0.05;
        cfg.faults.sweeper_stall_cycles = 250'000;
        cfg.faults.fault_drop_prob = 0.10;
        cfg.faults.max_fault_drops = 4;
        cfg.faults.stw_delay_prob = 0.25;
        cfg.faults.stw_delay_cycles = 25'000;
        cfg.faults.shootdown_drop_prob = 0.2;
        cfg.faults.summary_corrupt_prob = 0.25;
        cfg.faults.quarantine_drop_prob = 0.25;
        cfg.faults.quarantine_duplicate_prob = 0.25;
    }
    return cfg;
}

/** Build @p cfg's machine, run 300 iterations of the cross-core
 *  churn on it, and return the metrics. */
inline core::RunMetrics
runCrossCore(const core::MachineConfig &cfg)
{
    core::Machine m(cfg);
    crossCoreChurn(m, 300);
    m.run();
    return m.metrics();
}

} // namespace crev::test

#endif // CREV_TESTS_FINGERPRINT_H_
