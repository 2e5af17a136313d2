/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * A FaultInjector turns a seeded FaultPlan into concrete fault
 * decisions at well-defined instrumentation points: background-sweeper
 * work loops (stall/kill), the capability-load fault delivery path
 * (drop/duplicate), stop-the-world entry (delay), and the memory
 * system (latency spikes). Because decisions are drawn from a
 * dedicated xoshiro stream and the scheduler serialises all simulated
 * threads, a given (plan, workload) pair replays the exact same fault
 * sequence on every run — chaos campaigns are reproducible bit for
 * bit, which is what lets the test suite assert that *recovery* is
 * deterministic too.
 *
 * Probabilistic faults draw from the RNG only when their probability
 * is nonzero and virtual time is inside [window_begin, window_end), so
 * disabling one fault class never perturbs the decision stream of the
 * others' plans.
 */

#ifndef CREV_SIM_FAULT_INJECTOR_H_
#define CREV_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>

#include "base/rng.h"
#include "base/types.h"
#include "sim/scheduler.h"
#include "trace/trace.h"

namespace crev::sim {

/** One seeded chaos scenario: which faults fire, how hard, and when. */
struct FaultPlan
{
    /** Master switch; a disabled plan injects nothing and the Machine
     *  builds no injector at all (zero overhead). */
    bool enabled = false;

    /** Seed of the decision stream (independent of the workload RNG). */
    std::uint64_t seed = 0x5eed;

    /** Virtual-time window in which probabilistic faults are armed. */
    Cycles window_begin = 0;
    Cycles window_end = ~static_cast<Cycles>(0);

    // --- background sweeper faults (checked once per work item) ---

    /** Probability that a sweeper stalls before its next page visit. */
    double sweeper_stall_prob = 0.0;
    /** How long a stalled sweeper sleeps (virtual cycles). */
    Cycles sweeper_stall_cycles = 0;
    /** Probability that a *helper* sweeper thread dies outright. */
    double sweeper_kill_prob = 0.0;
    /** Cap on kills so runs always retain a path to completion. */
    unsigned max_sweeper_kills = 1;

    // --- capability-load fault delivery (paper §4 barrier path) ---

    /** Probability a fault's completion notification is lost. The trap
     *  itself still runs (hardware took it), so safety holds; only the
     *  epoch accounting wedges — exactly what the watchdog repairs. */
    double fault_drop_prob = 0.0;
    /** Cap on dropped completions per run. */
    unsigned max_fault_drops = 8;
    /** Probability a fault is delivered twice (stale-TLB style). */
    double fault_duplicate_prob = 0.0;

    // --- stop-the-world entry ---

    /** Probability the revoker's STW entry is delayed (lost IPI). */
    double stw_delay_prob = 0.0;
    Cycles stw_delay_cycles = 0;

    // --- memory-system latency spike (pure time window, no RNG) ---

    /** Every @p mem_spike_period cycles, accesses in the first
     *  @p mem_spike_duration cycles of the period pay an extra
     *  @p mem_spike_extra cycles each. 0 disables. */
    Cycles mem_spike_period = 0;
    Cycles mem_spike_duration = 0;
    Cycles mem_spike_extra = 0;

    // --- TLB shootdown IPIs (checked once per target core) ---

    /** Probability one core's shootdown IPI is lost. Safe for the
     *  barrier designs (a stale TLB entry just re-traps and heals);
     *  costs the initiator a bounded re-send round. */
    double shootdown_drop_prob = 0.0;
    /** Cap on lost IPIs per run (keeps re-send rounds bounded). */
    unsigned max_shootdown_drops = 16;
    /** Probability a core acks its IPI late, and by how much. */
    double shootdown_late_prob = 0.0;
    Cycles shootdown_late_cycles = 0;

    // --- simulated-core stalls (checked at yield points) ---

    /** Probability a thread's core freezes at a yield point. */
    double core_stall_prob = 0.0;
    Cycles core_stall_cycles = 0;
    /** Cap on core stalls per run. */
    unsigned max_core_stalls = 4;

    // --- shadow-summary corruption (checked at audit entry) ---

    /** Probability one ShadowSummary L0 word takes a bit flip before
     *  an audit; the Auditor must detect and repair it from
     *  ground-truth shadow bytes. */
    double summary_corrupt_prob = 0.0;
    unsigned max_summary_corruptions = 8;

    // --- quarantine epoch hand-off (checked per revocation request) ---

    /** Probability the allocator's epoch request to the revoker is
     *  lost (recovered by the allocator's bounded re-send, degrading
     *  to an emergency epoch). */
    double quarantine_drop_prob = 0.0;
    unsigned max_quarantine_drops = 4;
    /** Probability the request is delivered twice (benign: requests
     *  are idempotent while one is pending; a late duplicate costs at
     *  most one spurious epoch). */
    double quarantine_duplicate_prob = 0.0;

    /**
     * Structural validation: empty string when the plan is
     * well-formed, else a message naming the offending field. The
     * Machine rejects invalid plans at construction.
     */
    std::string validate() const;
};

/** How many of each fault actually fired (RunMetrics observability). */
struct FaultCounters
{
    std::uint64_t sweeper_stalls = 0;
    std::uint64_t sweeper_kills = 0;
    std::uint64_t faults_dropped = 0;
    std::uint64_t faults_duplicated = 0;
    std::uint64_t stw_delays = 0;
    std::uint64_t shootdown_drops = 0;
    std::uint64_t shootdown_lates = 0;
    std::uint64_t core_stalls = 0;
    std::uint64_t summary_corruptions = 0;
    std::uint64_t quarantine_drops = 0;
    std::uint64_t quarantine_duplicates = 0;
};

/** Draws fault decisions from a FaultPlan's seeded stream. */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /** Stall duration for the next sweeper work item; 0 = no stall. */
    Cycles sweeperStall(SimThread &t);

    /** Whether a helper sweeper should die now (bounded by plan). */
    bool sweeperKill(SimThread &t);

    /** Whether this load-fault's completion should be lost (bounded). */
    bool dropFaultDelivery(SimThread &t);

    /** Whether this load-fault should be delivered a second time. */
    bool duplicateFaultDelivery(SimThread &t);

    /** Extra cycles to charge before entering stop-the-world. */
    Cycles stwEntryDelay(SimThread &t);

    /** Whether @p target_core's shootdown IPI is lost (bounded). */
    bool dropShootdownIpi(SimThread &t, unsigned target_core);

    /** Extra ack latency for @p target_core's IPI; 0 = on time. */
    Cycles shootdownAckDelay(SimThread &t, unsigned target_core);

    /** Stall duration for @p t's core at a yield point; 0 = none
     *  (bounded by plan). */
    Cycles coreStall(SimThread &t);

    /**
     * Whether a ShadowSummary word should be corrupted before the
     * audit at this instant (bounded). On true, @p entropy_out
     * receives a fresh draw the caller uses to pick block/word/bit, so
     * the damage site is part of the deterministic decision stream.
     */
    bool corruptSummaryWord(SimThread &t, std::uint64_t *entropy_out);

    /** Whether this quarantine epoch request is lost (bounded). */
    bool dropQuarantineHandoff(SimThread &t);

    /** Whether this quarantine epoch request is delivered twice. */
    bool duplicateQuarantineHandoff(SimThread &t);

    /**
     * Extra per-access memory latency at virtual time @p now. Pure
     * function of time (consumes no RNG): safe to call on every
     * simulated memory access without perturbing other decisions.
     */
    Cycles
    memAccessPenalty(Cycles now) const
    {
        if (plan_.mem_spike_period == 0 || !inWindow(now))
            return 0;
        return (now % plan_.mem_spike_period) < plan_.mem_spike_duration
                   ? plan_.mem_spike_extra
                   : 0;
    }

    const FaultPlan &plan() const { return plan_; }
    const FaultCounters &counters() const { return counters_; }

  private:
    bool
    inWindow(Cycles now) const
    {
        return plan_.enabled && now >= plan_.window_begin &&
               now < plan_.window_end;
    }

    /** Bernoulli draw, consuming RNG only for armed nonzero faults. */
    bool roll(SimThread &t, double prob);
    /** Record a fired fault as a kFaultInject instant in the trace
     *  (zero simulated cost). */
    void fire(SimThread &t, trace::FaultAction action);

    FaultPlan plan_;
    Rng rng_;
    FaultCounters counters_;
};

} // namespace crev::sim

#endif // CREV_SIM_FAULT_INJECTOR_H_
