#include "revoker/reloaded.h"

#include "base/logging.h"
#include "sim/fault_injector.h"

namespace crev::revoker {

void
ReloadedRevoker::faultDone(sim::SimThread &t)
{
    // Degraded recovery may have voided the in-flight count while this
    // handler was still running; never underflow past that reset.
    if (faults_in_flight_ > 0)
        --faults_in_flight_;
    fault_done_event_.notifyAll(t);
}

void
ReloadedRevoker::handleLoadFault(sim::SimThread &t, Addr fault_va)
{
    deliverLoadFault(t, fault_va, /*primary=*/true);
    // Stale-TLB style duplicate: the same trap is delivered twice; the
    // second delivery finds the page healed and exits early, costing
    // only handler time. Accounting must stay balanced.
    if (sim::FaultInjector *inj = sched_.injector();
        inj != nullptr && inj->duplicateFaultDelivery(t))
        deliverLoadFault(t, fault_va, /*primary=*/false);
}

void
ReloadedRevoker::deliverLoadFault(sim::SimThread &t, Addr fault_va,
                                  bool primary)
{
    // A "dropped" delivery models a lost completion notification: the
    // hardware trap still runs and the page still heals (safety is
    // untouched), but the epoch never learns the fault retired —
    // faults_in_flight_ leaks and the epoch wedges until the watchdog
    // steps in.
    sim::FaultInjector *inj = sched_.injector();
    const bool lost =
        primary && inj != nullptr && inj->dropFaultDelivery(t);

    const Cycles t0 = t.now();
    {
        PhaseBracket bracket(t, trace::Phase::kLoadFaultSweep);
        ++faults_in_flight_;
        // The PTE may already be up to date: another core healed the
        // page, and this core's TLB entry was stale (§4.3).
        const bool mapped =
            sweep_.visitPage(t, pageBase(fault_va), /*heal=*/true);
        CREV_ASSERT(mapped);
    }
    if (!lost) {
        fault_time_ += t.now() - t0;
        ++fault_count_;
        faultDone(t);
    }
}

Addr
ReloadedRevoker::nextWork()
{
    if (work_next_ >= work_.size())
        return 0;
    return work_[work_next_++];
}

void
ReloadedRevoker::collectStalePages()
{
    const unsigned gen = mmu_.currentGen();
    // A §7.6 trap page keeps no generation: it needs a visit only
    // once a capability store has dirtied it since its clean visit.
    work_ = collectPages([gen](const vm::Pte &p) {
        return p.cap_load_trap ? p.cap_dirty : p.clg != gen;
    });
    work_next_ = 0;
}

void
ReloadedRevoker::helperBody(sim::SimThread &self)
{
    sim::FaultInjector *inj = sched_.injector();
    for (;;) {
        while (!epoch_active_) {
            if (sched_.shuttingDown())
                return;
            helper_event_.wait(self);
        }
        // A force-completed epoch can leave epoch_active_ set through
        // shutdown; without this check the helper would spin here.
        if (sched_.shuttingDown())
            return;
        ++helpers_busy_;
        busy_helper_ids_.insert(self.id());
        for (Addr va = nextWork(); va != 0; va = nextWork()) {
            if (inj != nullptr) {
                if (inj->sweeperKill(self)) {
                    // Die mid-item, taking the popped page and our
                    // helpers_busy_ slot to the grave — precisely the
                    // wounds reapDeadSweepers() and the leftover
                    // rescan in runPhases() exist to heal.
                    return;
                }
                const Cycles stall = inj->sweeperStall(self);
                if (stall > 0)
                    self.sleep(stall);
            }
            sweep_.visitPage(self, va, /*heal=*/true);
        }
        busy_helper_ids_.erase(self.id());
        --helpers_busy_;
        helper_done_event_.notifyAll(self);
        // Wait for the epoch flag to drop before re-arming.
        while (epoch_active_ && !sched_.shuttingDown())
            helper_event_.wait(self);
    }
}

void
ReloadedRevoker::nudge(sim::SimThread &caller)
{
    Revoker::nudge(caller);
    helper_event_.notifyAll(caller);
    helper_done_event_.notifyAll(caller);
    fault_done_event_.notifyAll(caller);
}

std::vector<sim::SimThread *>
ReloadedRevoker::reapDeadSweepers(sim::SimThread &self)
{
    auto dead = Revoker::reapDeadSweepers(self);
    bool repaired = false;
    for (sim::SimThread *t : dead) {
        if (busy_helper_ids_.erase(t->id()) > 0) {
            CREV_ASSERT(helpers_busy_ > 0);
            --helpers_busy_;
            repaired = true;
        }
    }
    if (repaired)
        helper_done_event_.notifyAll(self);
    return dead;
}

void
ReloadedRevoker::runPhases(sim::SimThread &self, EpochTiming &timing)
{
    sim::FaultInjector *inj = sched_.injector();

    // Short STW phase: flip the per-core load generations (PTEs are
    // untouched — §4.1's one-update-per-epoch property) and scan
    // registers and kernel hoards.
    {
        StwWindow stw(self, timing.stw_duration);
        mmu_.flipAllCoreGens(self, stw.world());
        scanRegistersAndHoards(self);
    }

    // Background phase: visit every page still carrying the old
    // generation. Foreground faults race us benignly (each visit
    // rechecks under the pmap lock; page visits are idempotent).
    PhaseBracket conc(self, trace::Phase::kConcurrentSweep,
                      &timing.concurrent_duration);
    collectStalePages();

    epoch_active_ = true;
    helper_event_.notifyAll(self);
    for (Addr va = nextWork(); va != 0; va = nextWork()) {
        if (inj != nullptr) {
            const Cycles stall = inj->sweeperStall(self);
            if (stall > 0)
                self.sleep(stall);
        }
        sweep_.visitPage(self, va, /*heal=*/true);
    }
    {
        PhaseBracket drain(self, trace::Phase::kDrain);
        while (helpers_busy_ > 0 && !sched_.shuttingDown() &&
               !recoveryRequested() && !forceCompleted())
            helper_done_event_.wait(self);
        epoch_active_ = false;
        helper_event_.notifyAll(self);

        // A helper killed mid-item can take a popped page to the
        // grave: anything still stale after the drain is revisited
        // here (in healthy epochs one extra scan finds nothing).
        // Terminates because every visit publishes the page's
        // disposition.
        for (;;) {
            collectStalePages();
            if (work_.empty())
                break;
            for (Addr va = nextWork(); va != 0; va = nextWork())
                sweep_.visitPage(self, va, /*heal=*/true);
        }

        // The epoch is not over until in-flight foreground fault
        // handlers have published their pages (they also belong to
        // this epoch's accounting).
        while (faults_in_flight_ > 0 && !sched_.shuttingDown() &&
               !recoveryRequested() && !forceCompleted())
            fault_done_event_.wait(self);
    }

    if (recoveryRequested() || forceCompleted()) {
        // Degradation: a lost fault completion (or similar) wedged the
        // epoch. If the watchdog has not already completed it by fiat,
        // run the emergency sweep ourselves; either way the in-flight
        // count is void — it counts notifications, not obligations,
        // and the sweep discharged every obligation.
        if (!forceCompleted()) {
            emergencyStwSweep(self, &timing.stw_duration);
            currentRecovery().degraded = true;
        }
        faults_in_flight_ = 0;
    }

    // Delta accounting so that every fault (including rare stale-TLB
    // faults landing between epochs) is attributed to exactly one
    // epoch record.
    timing.fault_time_total = fault_time_ - fault_time_recorded_;
    timing.fault_count = fault_count_ - fault_count_recorded_;
    fault_time_recorded_ = fault_time_;
    fault_count_recorded_ = fault_count_;
}

} // namespace crev::revoker
