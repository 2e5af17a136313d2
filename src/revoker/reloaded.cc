#include "revoker/reloaded.h"

#include "base/logging.h"
#include "sim/fault_injector.h"
#include "vm/address_space.h"

namespace crev::revoker {

ReloadedRevoker::ReloadedRevoker(sim::Scheduler &sched, vm::Mmu &mmu,
                                 kern::Kernel &kernel,
                                 RevocationBitmap &bitmap,
                                 const RevokerOptions &opts)
    : Revoker(sched, mmu, kernel, bitmap, opts)
{
}

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
    if (opts_.injector != nullptr &&
        opts_.injector->duplicateFaultDelivery(t))
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
    const bool lost = primary && opts_.injector != nullptr &&
                      opts_.injector->dropFaultDelivery(t);

    const Cycles t0 = t.now();
    tracePhaseBegin(t, trace::Phase::kLoadFaultSweep);
    const Addr va = pageBase(fault_va);
    vm::AddressSpace &as = mmu_.addressSpace();
    sim::SimMutex &pmap = as.pmapLock();
    const unsigned gen = mmu_.currentGen();
    ++faults_in_flight_;

    // First pmap acquisition: detect a stale TLB — the PTE may have
    // already been brought up to date by another core (§4.3).
    pmap.lock(t);
    vm::Pte *p = as.findPte(va);
    CREV_ASSERT(p != nullptr && p->valid);
    if (p->clg == gen && !p->cap_load_trap) {
        pmap.unlock(t);
        tracePhaseEnd(t, trace::Phase::kLoadFaultSweep);
        if (!lost) {
            fault_time_ += t.now() - t0;
            ++fault_count_;
            faultDone(t);
        }
        return;
    }
    pmap.unlock(t);

    // Sweep without locks held (probing the bitmap may itself fault).
    bool clean = true;
    if (p->cap_ever)
        clean = sweep_.sweepPage(t, va);

    // Second acquisition: idempotently publish the new generation.
    pmap.lock(t);
    if (p->clg != gen || p->cap_load_trap) {
        PublishOptions o;
        o.gen = gen;
        o.clean = clean;
        o.clean_page_detection = opts_.clean_page_detection;
        sweep_.publishPage(t, *p, va, o, vm::PteContext::kLocked);
    }
    pmap.unlock(t);

    tracePhaseEnd(t, trace::Phase::kLoadFaultSweep);
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
    work_ = collectPages([gen](const vm::Pte &p) {
        return p.clg != gen && !p.cap_load_trap;
    });
    work_next_ = 0;
}

void
ReloadedRevoker::visitPage(sim::SimThread &t, Addr va)
{
    vm::AddressSpace &as = mmu_.addressSpace();
    sim::SimMutex &pmap = as.pmapLock();
    const unsigned gen = mmu_.currentGen();

    pmap.lock(t);
    vm::Pte *p = as.findPte(va);
    if (p == nullptr || !p->valid ||
        (p->clg == gen && !p->cap_load_trap)) {
        // Freed, or already healed by a foreground fault.
        pmap.unlock(t);
        return;
    }
    pmap.unlock(t);

    bool clean = true;
    if (p->cap_ever)
        clean = sweep_.sweepPage(t, va);

    pmap.lock(t);
    if (p->valid && (p->clg != gen || p->cap_load_trap)) {
        PublishOptions o;
        o.gen = gen;
        o.clean = clean;
        o.clean_page_detection = opts_.clean_page_detection;
        o.always_trap_clean = opts_.always_trap_clean_pages;
        sweep_.publishPage(t, *p, va, o, vm::PteContext::kLocked);
    }
    pmap.unlock(t);
}

void
ReloadedRevoker::helperBody(sim::SimThread &self)
{
    sim::FaultInjector *inj = opts_.injector;
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
                    // rescan in doEpoch() exist to heal.
                    return;
                }
                const Cycles stall = inj->sweeperStall(self);
                if (stall > 0)
                    self.sleep(stall);
            }
            visitPage(self, va);
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
ReloadedRevoker::doEpoch(sim::SimThread &self)
{
    kern::EpochCounter &epoch = kernel_.epoch();
    sim::FaultInjector *inj = opts_.injector;

    epoch.advance(self); // odd
    snapshotAuditSet();

    EpochTiming timing;

    // Short STW phase: flip the per-core load generations (PTEs are
    // untouched — §4.1's one-update-per-epoch property) and scan
    // registers and kernel hoards.
    const Cycles begin = stwBegin(self);
    tracePhaseBegin(self, trace::Phase::kStwScan);
    mmu_.flipAllCoreGens(self);
    scanRegistersAndHoards(self);
    timing.stw_duration = self.now() - begin;
    tracePhaseEnd(self, trace::Phase::kStwScan);
    sched_.resumeWorld(self);

    // Background phase: visit every page still carrying the old
    // generation. Foreground faults race us benignly (visitPage
    // rechecks under the pmap lock; page visits are idempotent).
    const Cycles cbegin = self.now();
    tracePhaseBegin(self, trace::Phase::kConcurrentSweep);
    collectStalePages();

    epoch_active_ = true;
    helper_event_.notifyAll(self);
    for (Addr va = nextWork(); va != 0; va = nextWork()) {
        if (inj != nullptr) {
            const Cycles stall = inj->sweeperStall(self);
            if (stall > 0)
                self.sleep(stall);
        }
        visitPage(self, va);
    }
    tracePhaseBegin(self, trace::Phase::kDrain);
    while (helpers_busy_ > 0 && !sched_.shuttingDown() &&
           !recoveryRequested() && !forceCompleted())
        helper_done_event_.wait(self);
    epoch_active_ = false;
    helper_event_.notifyAll(self);

    // A helper killed mid-item can take a popped page to the grave:
    // anything still stale after the drain is revisited here (in
    // healthy epochs one extra scan finds nothing). Terminates
    // because every visit publishes the page's disposition.
    for (;;) {
        collectStalePages();
        if (work_.empty())
            break;
        for (Addr va = nextWork(); va != 0; va = nextWork())
            visitPage(self, va);
    }

    // The epoch is not over until in-flight foreground fault handlers
    // have published their pages (they also belong to this epoch's
    // accounting).
    while (faults_in_flight_ > 0 && !sched_.shuttingDown() &&
           !recoveryRequested() && !forceCompleted())
        fault_done_event_.wait(self);
    tracePhaseEnd(self, trace::Phase::kDrain);

    if (recoveryRequested() || forceCompleted()) {
        // Degradation: a lost fault completion (or similar) wedged the
        // epoch. If the watchdog has not already completed it by fiat,
        // run the emergency sweep ourselves; either way the in-flight
        // count is void — it counts notifications, not obligations,
        // and the sweep discharged every obligation.
        if (!forceCompleted()) {
            timing.stw_duration += emergencyStwSweep(self);
            currentRecovery().degraded = true;
        }
        faults_in_flight_ = 0;
    }

    tracePhaseEnd(self, trace::Phase::kConcurrentSweep);
    timing.concurrent_duration = self.now() - cbegin;
    // Delta accounting so that every fault (including rare stale-TLB
    // faults landing between epochs) is attributed to exactly one
    // epoch record.
    timing.fault_time_total = fault_time_ - fault_time_recorded_;
    timing.fault_count = fault_count_ - fault_count_recorded_;
    fault_time_recorded_ = fault_time_;
    fault_count_recorded_ = fault_count_;

    finishEpoch(self); // even (skipped if the watchdog got there first)
    timings_.push_back(timing);
}

} // namespace crev::revoker
