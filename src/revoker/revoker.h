/**
 * @file
 * The revocation service: epoch orchestration shared by all
 * strategies.
 *
 * A Revoker runs as a daemon thread (paper: "one system call per
 * revocation phase, invoked by a dedicated thread"; we fold the
 * userspace trigger thread and the kernel worker together). Allocators
 * request epochs and wait on the public epoch counter; concrete
 * strategies implement doEpoch().
 *
 * The base class additionally owns the *recovery protocol* driven by
 * the EpochWatchdog: every epoch is tracked (sequence number, start
 * time, in-progress flag) so that a stuck epoch can be detected, and
 * the degradation ladder — nudge blocked waits, reap/respawn dead
 * sweeper threads, and finally an emergency CHERIvoke-style
 * stop-the-world sweep — guarantees the epoch counter always advances
 * even when background sweeping fails. That last property is what
 * keeps QuarantineShim::drain()/maybeBlock() free of deadlock under
 * injected faults.
 */

#ifndef CREV_REVOKER_REVOKER_H_
#define CREV_REVOKER_REVOKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.h"
#include "kern/kernel.h"
#include "revoker/bitmap.h"
#include "revoker/sweep.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "trace/trace.h"
#include "vm/mmu.h"

namespace crev::check {
class SafetyOracle;
} // namespace crev::check

namespace crev::sim {
class FaultInjector;
} // namespace crev::sim

namespace crev::revoker {

/** How (and whether) an epoch needed recovery to complete. */
struct EpochRecovery
{
    /** Epoch was completed via an emergency STW sweep. */
    bool degraded = false;
    /** The watchdog — not the revoker daemon — completed the epoch. */
    bool forced = false;
    /** Watchdog nudges delivered while this epoch was overdue. */
    std::uint32_t nudges = 0;
    /** Dead sweeper threads respawned during this epoch. */
    std::uint32_t respawns = 0;
};

/** Timing record for one revocation epoch (feeds fig. 9). */
struct EpochTiming
{
    Cycles stw_duration = 0;        //!< world-stopped phase
    Cycles concurrent_duration = 0; //!< background phase
    Cycles fault_time_total = 0;    //!< sum of load-barrier fault work
    std::uint64_t fault_count = 0;
    std::uint64_t pages_swept = 0;
    std::uint64_t caps_revoked = 0;
    EpochRecovery recovery;         //!< how the epoch reached completion
};

/** Strategy-independent configuration knobs. */
struct RevokerOptions
{
    /** Reloaded: clear cap_ever when a sweep finds a page clean. */
    bool clean_page_detection = true;
    /** §7.6: mark clean pages always-trap instead of refreshing CLG. */
    bool always_trap_clean_pages = false;
    /** §7.1: number of background sweeper threads (Reloaded). */
    unsigned background_sweepers = 1;
    /** Run the whole-machine invariant audit after each epoch. */
    bool audit = false;
    /** Fault injector for chaos campaigns (null: no injection). */
    sim::FaultInjector *injector = nullptr;
    /** Event tracer (null: tracing off; zero simulated cost). */
    trace::Tracer *tracer = nullptr;
};

/**
 * Base class: owns the request/epoch plumbing; subclasses implement
 * one revocation epoch.
 */
class Revoker
{
  public:
    Revoker(sim::Scheduler &sched, vm::Mmu &mmu, kern::Kernel &kernel,
            RevocationBitmap &bitmap, const RevokerOptions &opts);
    virtual ~Revoker() = default;

    /** Human-readable strategy name. */
    virtual const char *name() const = 0;

    /**
     * Ask for a revocation epoch to start soon; returns immediately.
     * Idempotent while a request is pending.
     */
    void requestEpoch(sim::SimThread &caller);

    /** Block @p caller until the epoch counter reaches @p target. */
    void waitForEpochCounter(sim::SimThread &caller,
                             std::uint64_t target);

    /** The daemon loop body (bound to the revoker thread at spawn). */
    void daemonBody(sim::SimThread &self);

    /** Per-epoch timing records. */
    const std::vector<EpochTiming> &timings() const { return timings_; }

    /** Aggregate sweep work. */
    const SweepStats &sweepStats() const { return sweep_.stats(); }

    std::uint64_t epochsCompleted() const { return epochs_; }

    kern::Kernel &kernel() { return kernel_; }
    RevocationBitmap &bitmap() { return bitmap_; }

    /**
     * Snapshot of granules painted as of the last epoch's start, for
     * the Auditor: any tagged capability with a base in this set after
     * the epoch completes is an invariant violation. Dequarantine
     * clears entries via onDequarantine().
     */
    const ShadowSummary &auditSet() const { return audit_set_; }
    void onDequarantine(Addr base, Addr len);

    /** Installed by the Machine when auditing is on; runs on the
     *  thread that completed the epoch (chaos injection and recovery
     *  tickets need its clock). */
    using AuditHook = std::function<void(sim::SimThread &)>;
    void setAuditHook(AuditHook h) { audit_hook_ = std::move(h); }

    /**
     * Attach the temporal-safety oracle (null = off). At every epoch
     * completion the audit set's granules are committed as revoked;
     * dequarantine clears them. Never attached for paint-only, whose
     * epochs complete without revoking anything.
     */
    void setOracle(check::SafetyOracle *o) { oracle_ = o; }

    // --- recovery protocol (EpochWatchdog side) ---
    //
    // All of the state below is plain data: the scheduler's single
    // execution token serialises every simulated thread, so the
    // watchdog and the daemon never race in host terms.

    /** True between doEpoch() entry and return on the daemon. */
    bool epochInProgress() const { return epoch_in_progress_; }
    /** Monotone count of epochs the daemon has started. */
    std::uint64_t epochSeq() const { return epoch_seq_; }
    /** Virtual time the in-progress epoch started. */
    Cycles epochStartedAt() const { return epoch_started_at_; }
    /** Whether an epoch request is waiting for the daemon. */
    bool requestPending() const { return request_pending_; }
    /** Whether the watchdog has asked for degraded completion. */
    bool recoveryRequested() const { return recovery_requested_; }
    /** Whether the watchdog force-completed the in-progress epoch. */
    bool forceCompleted() const { return force_completed_; }

    /**
     * Re-notify every event a wedged daemon might be blocked on;
     * harmless when nothing is stuck. Subclasses add their own events.
     */
    virtual void nudge(sim::SimThread &caller);

    /**
     * Ask the daemon to finish the in-progress epoch in degraded mode
     * (emergency STW sweep) at its next recovery checkpoint.
     */
    void requestRecovery(sim::SimThread &caller);

    /** Track a background sweeper thread for death detection. */
    void registerSweeper(sim::SimThread *t);

    /**
     * Detect registered sweepers whose bodies have returned, remove
     * them, and repair any epoch accounting they held (subclasses).
     * Returns the dead threads so the watchdog can respawn them.
     */
    virtual std::vector<sim::SimThread *>
    reapDeadSweepers(sim::SimThread &self);

    /**
     * Watchdog fallback for an unresponsive daemon stuck mid-epoch
     * (counter odd): run the emergency sweep on the *calling* thread,
     * advance the counter to even, and release epoch waiters. The
     * daemon skips its own counter advance when it eventually resumes.
     */
    void forceCompleteEpoch(sim::SimThread &self);

    /**
     * Watchdog fallback for a pending request the daemon cannot take
     * (still wedged inside a force-completed epoch): run one complete
     * CHERIvoke-style epoch — advance to odd, snapshot, STW sweep,
     * advance to even — entirely on the calling thread.
     */
    void emergencyEpoch(sim::SimThread &self);

    /** Per-epoch recovery record being accumulated (watchdog notes). */
    EpochRecovery &currentRecovery() { return cur_recovery_; }

  protected:
    /** Perform one full revocation epoch on the daemon thread. */
    virtual void doEpoch(sim::SimThread &self) = 0;

    /**
     * Phase brackets for the tracer. Strategies bracket each fig. 9
     * phase at exactly the instants their EpochTiming fields are
     * computed, so trace-derived totals equal the RunMetrics phase
     * accounting. Zero simulated cost; no-ops when tracing is off.
     */
    void tracePhaseBegin(sim::SimThread &self, trace::Phase phase);
    void tracePhaseEnd(sim::SimThread &self, trace::Phase phase);

    /** Scan every thread's register file and the kernel hoards. */
    void scanRegistersAndHoards(sim::SimThread &self);

    /** Record the painted-set snapshot at epoch start (audit). */
    void snapshotAuditSet();

    /**
     * Commit the completed epoch's audit set into the safety oracle
     * (no-op without one). Must run after the counter reaches even and
     * before waiters can dequarantine.
     */
    void commitOracle(sim::SimThread &self);

    /**
     * Collect the strategy's sweep candidates: the resident pages
     * whose PTE satisfies @p want, in ascending VA order (one walk of
     * the page table).
     */
    std::vector<Addr>
    collectPages(const std::function<bool(const vm::Pte &)> &want);

    /**
     * Enter stop-the-world, applying any injected entry delay (lost
     * IPI model) first. All strategies stop the world through here.
     */
    Cycles stwBegin(sim::SimThread &self);

    /**
     * Advance the epoch counter to even at the end of doEpoch() —
     * unless the watchdog already force-completed this epoch.
     */
    void finishEpoch(sim::SimThread &self);

    /**
     * CHERIvoke-style emergency sweep: stop the world, scan registers
     * and hoards, sweep every page that has ever held capabilities,
     * and heal all PTE generations. Deliberately takes no pmap lock:
     * a parked mutator may hold it, and blocking inside a
     * stop-the-world phase would deadlock the scheduler; with the
     * world stopped, lock-free PTE access is the same fiat CheriVoke
     * relies on. Returns the world-stopped duration.
     */
    Cycles emergencyStwSweep(sim::SimThread &self);

    sim::Scheduler &sched_;
    vm::Mmu &mmu_;
    kern::Kernel &kernel_;
    RevocationBitmap &bitmap_;
    RevokerOptions opts_;
    SweepEngine sweep_;
    std::vector<EpochTiming> timings_;

  private:
    sim::SimEvent request_event_;
    sim::SimEvent epoch_event_;
    bool request_pending_ = false;
    std::uint64_t epochs_ = 0;
    ShadowSummary audit_set_;
    AuditHook audit_hook_;
    check::SafetyOracle *oracle_ = nullptr;

    // Recovery-protocol state (see class comment).
    bool epoch_in_progress_ = false;
    std::uint64_t epoch_seq_ = 0;
    Cycles epoch_started_at_ = 0;
    bool recovery_requested_ = false;
    bool force_completed_ = false;
    EpochRecovery cur_recovery_;
    std::vector<sim::SimThread *> sweepers_;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_REVOKER_H_
