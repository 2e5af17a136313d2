#include "revoker/revoker.h"

#include "base/logging.h"
#include "check/race_checker.h"
#include "check/safety_oracle.h"
#include "sim/fault_injector.h"
#include "vm/address_space.h"

namespace crev::revoker {

Revoker::Revoker(sim::Scheduler &sched, vm::Mmu &mmu,
                 kern::Kernel &kernel, RevocationBitmap &bitmap,
                 const RevokerOptions &opts)
    : sched_(sched), mmu_(mmu), kernel_(kernel), bitmap_(bitmap),
      opts_(opts), sweep_(mmu, bitmap)
{
}

void
Revoker::requestEpoch(sim::SimThread &caller)
{
    if (request_pending_)
        return;
    request_pending_ = true;
    request_event_.notifyAll(caller);
}

void
Revoker::waitForEpochCounter(sim::SimThread &caller,
                             std::uint64_t target)
{
    while (kernel_.epoch().value() < target) {
        if (caller.scheduler().shuttingDown())
            return;
        epoch_event_.wait(caller);
    }
}

void
Revoker::tracePhaseBegin(sim::SimThread &self, trace::Phase phase)
{
    if (trace::Tracer *tr = sched_.tracer())
        tr->record(self.id(), self.core(), self.now(),
                   trace::EventType::kPhaseBegin,
                   static_cast<std::uint8_t>(phase));
}

void
Revoker::tracePhaseEnd(sim::SimThread &self, trace::Phase phase)
{
    if (trace::Tracer *tr = sched_.tracer())
        tr->record(self.id(), self.core(), self.now(),
                   trace::EventType::kPhaseEnd,
                   static_cast<std::uint8_t>(phase));
}

void
Revoker::scanRegistersAndHoards(sim::SimThread &self)
{
    // Paper §4.4: the kernel must scan all pointers it holds on behalf
    // of the program — saved register files of every thread plus
    // explicit hoards — and may divulge none unchecked.
    if (auto *c = sched_.checker())
        c->onStwScan(self.id(), self.now());
    for (const auto &tp : sched_.threads())
        sweep_.scanRegisters(self, tp->registerFile());
    sweep_.scanRegisters(self, kernel_.hoard().slots());
}

void
Revoker::snapshotAuditSet()
{
    audit_set_ = bitmap_.painted();
}

check::SafetyOracle *
Revoker::oracle() const
{
    return commitsToOracle() ? sched_.oracle() : nullptr;
}

void
Revoker::onDequarantine(Addr base, Addr len)
{
    audit_set_.clearRange(base, len);
    if (check::SafetyOracle *o = oracle())
        o->clearRange(base, len);
}

void
Revoker::commitOracle(sim::SimThread &self)
{
    check::SafetyOracle *o = oracle();
    if (o == nullptr)
        return;
    (void)self;
    o->commitEpoch(kernel_.epoch().value());
    audit_set_.forEachSet([o](Addr g) { o->commitGranule(g); });
}

std::vector<Addr>
Revoker::collectPages(const std::function<bool(const vm::Pte &)> &want)
{
    std::vector<Addr> pages;
    mmu_.addressSpace().forEachResidentPage([&](Addr va, vm::Pte &p) {
        if (want(p))
            pages.push_back(va);
    });
    return pages;
}

void
Revoker::nudge(sim::SimThread &caller)
{
    request_event_.notifyAll(caller);
    epoch_event_.notifyAll(caller);
}

void
Revoker::requestRecovery(sim::SimThread &caller)
{
    if (!epoch_in_progress_ || recovery_requested_)
        return;
    recovery_requested_ = true;
    nudge(caller);
}

void
Revoker::registerSweeper(sim::SimThread *t)
{
    sweepers_.push_back(t);
}

std::vector<sim::SimThread *>
Revoker::reapDeadSweepers(sim::SimThread &)
{
    std::vector<sim::SimThread *> dead;
    for (auto it = sweepers_.begin(); it != sweepers_.end();) {
        if (sched_.finished(**it)) {
            dead.push_back(*it);
            it = sweepers_.erase(it);
        } else {
            ++it;
        }
    }
    return dead;
}

Cycles
Revoker::stwBegin(sim::SimThread &self)
{
    if (sim::FaultInjector *inj = sched_.injector()) {
        // A lost-then-retried IPI: the initiating thread burns cycles
        // before the world actually stops.
        const Cycles delay = inj->stwEntryDelay(self);
        if (delay > 0)
            self.accrue(delay);
    }
    return sched_.stopTheWorld(self);
}

void
Revoker::finishEpoch(sim::SimThread &self)
{
    if (force_completed_)
        return; // the watchdog already advanced the counter for us
    kernel_.epoch().advance(self);
    commitOracle(self);
}

Cycles
Revoker::emergencyStwSweep(sim::SimThread &self)
{
    const Cycles begin = sched_.stopTheWorld(self);
    scanRegistersAndHoards(self);

    // Sweep by fiat: with the world stopped no mutator can load a
    // stale capability, so visiting every page that ever held tags
    // revokes everything painted — regardless of what state the
    // wedged concurrent epoch left behind. Also heal every PTE so the
    // machine leaves the epoch with a consistent generation and no
    // pending traps.
    vm::AddressSpace &as = mmu_.addressSpace();
    const unsigned gen = mmu_.currentGen();
    as.forEachResidentPage([&](Addr va, vm::Pte &p) {
        if (!p.valid)
            return;
        if (p.cap_ever)
            sweep_.sweepPage(self, va);
        if (p.clg != gen || p.cap_load_trap) {
            PublishOptions o;
            o.gen = gen;
            sweep_.publishPage(self, p, va, o, vm::PteContext::kStw);
        }
    });

    const Cycles duration = self.now() - begin;
    sched_.resumeWorld(self);
    return duration;
}

void
Revoker::forceCompleteEpoch(sim::SimThread &self)
{
    CREV_ASSERT(epoch_in_progress_);
    CREV_ASSERT(kernel_.epoch().value() % 2 == 1);

    emergencyStwSweep(self);
    force_completed_ = true;
    cur_recovery_.degraded = true;
    cur_recovery_.forced = true;

    // Complete the epoch on the daemon's behalf: counter to even,
    // quarantined mappings reaped, waiters released. When the daemon
    // eventually resumes, finishEpoch() skips its own advance.
    kernel_.epoch().advance(self);
    commitOracle(self);
    kernel_.reapQuarantinedMappings(self);
    epoch_event_.notifyAll(self);
    if (opts_.audit && audit_hook_)
        audit_hook_(self);
}

void
Revoker::emergencyEpoch(sim::SimThread &self)
{
    kern::EpochCounter &epoch = kernel_.epoch();
    CREV_ASSERT(epoch.value() % 2 == 0);
    request_pending_ = false;

    const SweepStats before = sweep_.stats();
    epoch.advance(self); // odd: epoch in progress
    snapshotAuditSet();

    EpochTiming timing;
    timing.stw_duration = emergencyStwSweep(self);
    timing.recovery.degraded = true;
    timing.recovery.forced = true;

    epoch.advance(self); // even: epoch complete
    commitOracle(self);
    const SweepStats &after = sweep_.stats();
    timing.pages_swept = after.pages_swept - before.pages_swept;
    timing.caps_revoked = after.caps_revoked - before.caps_revoked;
    timings_.push_back(timing);
    ++epochs_;

    kernel_.reapQuarantinedMappings(self);
    epoch_event_.notifyAll(self);
    if (opts_.audit && audit_hook_)
        audit_hook_(self);
}

void
Revoker::daemonBody(sim::SimThread &self)
{
    for (;;) {
        while (!request_pending_) {
            if (sched_.shuttingDown())
                return;
            request_event_.wait(self);
        }
        request_pending_ = false;

        epoch_in_progress_ = true;
        ++epoch_seq_;
        epoch_started_at_ = self.now();
        recovery_requested_ = false;
        force_completed_ = false;
        cur_recovery_ = EpochRecovery{};

        const SweepStats before = sweep_.stats();
        doEpoch(self);
        epoch_in_progress_ = false;
        const SweepStats &after = sweep_.stats();
        ++epochs_;
        if (!timings_.empty()) {
            timings_.back().pages_swept =
                after.pages_swept - before.pages_swept;
            timings_.back().caps_revoked =
                after.caps_revoked - before.caps_revoked;
            timings_.back().recovery = cur_recovery_;
        }

        // §6.2: release mapping-quarantined reservations whose epoch
        // target has now passed.
        kernel_.reapQuarantinedMappings(self);

        // Wake allocators waiting on the epoch counter.
        epoch_event_.notifyAll(self);

        if (opts_.audit && audit_hook_)
            audit_hook_(self);
    }
}

} // namespace crev::revoker
