/**
 * @file
 * The revocation service: epoch orchestration shared by all
 * strategies.
 *
 * A Revoker runs as a daemon thread (paper: "one system call per
 * revocation phase, invoked by a dedicated thread"; we fold the
 * userspace trigger thread and the kernel worker together). Allocators
 * request epochs and wait on the public epoch counter. The epoch
 * protocol is this base class's alone (only it holds a kern::EpochKey);
 * strategies fill in runPhases().
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
#include <optional>
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

/**
 * Base class: owns the request/epoch plumbing; subclasses implement
 * one revocation epoch.
 */
class Revoker
{
  public:
    Revoker(sim::Scheduler &sched, vm::Mmu &mmu, kern::Kernel &kernel,
            RevocationBitmap &bitmap, const PagePolicy &policy);
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
     * Whether this strategy's epochs revoke anything. Paint-only's do
     * not, so for it the base pins no audit set, commits nothing to
     * the safety oracle (committing would flag legal loads of merely
     * quarantined objects, DESIGN.md §13.3), and the Machine installs
     * no per-epoch audit.
     */
    virtual bool revokes() const { return true; }

    // --- recovery protocol (EpochWatchdog side) ---
    //
    // All of the state below is plain data: the scheduler's single
    // execution token serialises every simulated thread, so the
    // watchdog and the daemon never race in host terms.

    /** True while the daemon runs an epoch. */
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
     * close the epoch, and release epoch waiters. The daemon skips its
     * own close when it eventually resumes. The sweep's time goes into
     * no EpochTiming (DESIGN.md §7a), so it draws no phase bracket.
     */
    void forceCompleteEpoch(sim::SimThread &self);

    /**
     * Watchdog fallback for a pending request the daemon cannot take
     * (still wedged inside a force-completed epoch): run one complete
     * epoch whose only phase is the emergency stop-the-world sweep,
     * entirely on the calling thread.
     */
    void emergencyEpoch(sim::SimThread &self);

    /** Per-epoch recovery record being accumulated (watchdog notes). */
    EpochRecovery &currentRecovery() { return cur_recovery_; }

  protected:
    /**
     * The strategy's phases of one epoch, run on the daemon between
     * the base's open (counter odd, audit set pinned) and close. Each
     * phase writes its duration into @p timing through a StwWindow or
     * a recording PhaseBracket, so trace totals equal RunMetrics.
     */
    virtual void runPhases(sim::SimThread &self, EpochTiming &timing) = 0;

    /**
     * One fig. 9 phase bracket for the tracer, scoped: it opens at
     * construction and closes at destruction, adding the bracketed
     * cycles to @p record (when given) at that instant, so the trace
     * and the EpochTiming field cannot disagree. Zero simulated cost.
     */
    class PhaseBracket
    {
      public:
        PhaseBracket(sim::SimThread &self, trace::Phase phase,
                     Cycles *record = nullptr);
        ~PhaseBracket();
        PhaseBracket(const PhaseBracket &) = delete;

      private:
        sim::SimThread &self_;
        trace::Phase phase_;
        Cycles *record_;
        Cycles begin_;
    };

    /**
     * One stop-the-world window, scoped: construction applies any
     * injected entry delay (the lost-IPI model), stops the world and
     * opens a kStwScan bracket recording into @p stw; destruction
     * closes the bracket and resumes the world.
     */
    class StwWindow
    {
      public:
        StwWindow(sim::SimThread &self, Cycles &stw);
        StwWindow(const StwWindow &) = delete;

        /** The proof that the world is stopped. */
        const sim::StoppedWorld &world() const { return world_; }

      private:
        friend class Revoker;
        /** With a null @p stw nothing is recorded or bracketed. */
        StwWindow(sim::SimThread &self, Cycles *stw, bool entry_delay);

        /** Apply the injected entry delay, if any; returns @p self. */
        static sim::SimThread &delayEntry(sim::SimThread &self,
                                          bool entry_delay);

        sim::StoppedWorld world_;
        /** Declared after world_, so the bracket closes first. */
        std::optional<PhaseBracket> scan_;
    };

    /** Scan every thread's register file and the kernel hoards. */
    void scanRegistersAndHoards(sim::SimThread &self);

    /**
     * Collect the strategy's sweep candidates: the resident pages
     * whose PTE satisfies @p want, in ascending VA order (one walk of
     * the page table).
     */
    std::vector<Addr>
    collectPages(const std::function<bool(const vm::Pte &)> &want);

    /**
     * CHERIvoke-style emergency sweep in its own stop-the-world window
     * (no injected entry delay) recording into @p stw, if given: scan
     * registers and hoards, sweep every page that has ever held
     * capabilities, and heal all PTE generations. Deliberately takes
     * no pmap lock: a parked mutator may hold it, and blocking inside
     * a stop-the-world phase would deadlock the scheduler; with the
     * world stopped, lock-free PTE access is the same fiat CheriVoke
     * relies on.
     */
    void emergencyStwSweep(sim::SimThread &self, Cycles *stw);

    sim::Scheduler &sched_;
    vm::Mmu &mmu_;
    kern::Kernel &kernel_;
    RevocationBitmap &bitmap_;
    SweepEngine sweep_;

  private:
    /**
     * The epoch driver: counter to odd, audit set pinned, the phases
     * (an @p emergency epoch's only phase is the emergency sweep),
     * close unless the watchdog already did, and record the timing.
     */
    void runEpoch(sim::SimThread &self, bool emergency);

    /** Counter to even, then commit the audit set to the safety
     *  oracle, before waiters can dequarantine. */
    void closeEpoch(sim::SimThread &self);

    /** After a close: reap quarantined mappings (§6.2), wake epoch
     *  waiters, and run the audit hook when one is installed. */
    void completeEpoch(sim::SimThread &self);

    /** The oracle this revoker commits to; null when none is attached
     *  or the strategy revokes nothing. */
    check::SafetyOracle *oracle() const;

    std::vector<EpochTiming> timings_;
    sim::SimEvent request_event_;
    sim::SimEvent epoch_event_;
    bool request_pending_ = false;
    ShadowSummary audit_set_;
    AuditHook audit_hook_;

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
