/**
 * @file
 * The Cornucopia Reloaded strategy (paper §3.2, §4): per-page
 * capability load barriers.
 *
 * An epoch begins with a very short stop-the-world phase that flips
 * every core's capability load generation register and scans register
 * files and kernel hoards. From that point, any tagged capability load
 * from a stale-generation page traps; the self-healing handler (which
 * runs on the faulting thread) sweeps the page, refreshes its PTE, and
 * the load retries. A background thread — optionally several, §7.1 —
 * visits all remaining stale pages so the epoch terminates. Pages are
 * never swept twice per epoch, and capability stores during revocation
 * need no tracking: any stored capability was itself loaded through
 * the barrier (the central invariant, §3.2).
 *
 * This strategy carries the machinery the chaos campaigns target:
 * helper sweepers can be stalled or killed, and load-fault completion
 * notifications can be dropped or duplicated. Every injection point
 * preserves the safety invariant (pages still heal; sweeps still
 * happen) and damages only *liveness* accounting — which the recovery
 * protocol in the Revoker base plus the EpochWatchdog then repairs.
 */

#ifndef CREV_REVOKER_RELOADED_H_
#define CREV_REVOKER_RELOADED_H_

#include <unordered_set>
#include <vector>

#include "revoker/revoker.h"

namespace crev::revoker {

/** Load-barrier based revoker. */
class ReloadedRevoker : public Revoker
{
  public:
    using Revoker::Revoker;

    const char *name() const override { return "reloaded"; }

    /**
     * The load-barrier fault handler; installed into the Mmu by the
     * Machine. Runs on the *faulting* (application) thread.
     */
    void handleLoadFault(sim::SimThread &t, Addr va);

    /**
     * Body for an auxiliary background sweeper thread (§7.1); the
     * Machine spawns (background_sweepers - 1) of these as daemons,
     * and the watchdog's respawn callback spawns replacements.
     */
    void helperBody(sim::SimThread &self);

    /** Also wakes the helper and fault-completion waits. */
    void nudge(sim::SimThread &caller) override;

    /**
     * Base reaping plus repair of the busy-helper accounting a dead
     * helper abandoned (so the epoch's helper drain can complete).
     */
    std::vector<sim::SimThread *>
    reapDeadSweepers(sim::SimThread &self) override;

  protected:
    void runPhases(sim::SimThread &self,
                   EpochTiming &timing) override;

  private:
    /**
     * One fault delivery. @p primary distinguishes the real trap from
     * an injected duplicate; only primaries can lose their completion
     * notification (the page heals either way — only the epoch's
     * in-flight accounting wedges, which is the watchdog's problem).
     */
    void deliverLoadFault(sim::SimThread &t, Addr fault_va,
                          bool primary);

    /** Retire one in-flight fault (underflow-safe after recovery). */
    void faultDone(sim::SimThread &t);

    /** Pop the next background work item; 0 when drained. */
    Addr nextWork();

    /** Refill work_ with the pages still carrying a stale generation
     *  and the §7.6 trap pages dirtied since their clean visit. */
    void collectStalePages();

    // Background work sharing (single-token execution makes plain
    // members safe).
    std::vector<Addr> work_;
    std::size_t work_next_ = 0;
    bool epoch_active_ = false;
    unsigned helpers_busy_ = 0;
    std::unordered_set<unsigned> busy_helper_ids_;
    sim::SimEvent helper_event_;
    sim::SimEvent helper_done_event_;

    // Fault accounting (cumulative; epochs record deltas).
    Cycles fault_time_ = 0;
    std::uint64_t fault_count_ = 0;
    Cycles fault_time_recorded_ = 0;
    std::uint64_t fault_count_recorded_ = 0;
    unsigned faults_in_flight_ = 0;
    sim::SimEvent fault_done_event_;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_RELOADED_H_
