#include "revoker/revoker.h"

#include "base/logging.h"
#include "check/race_checker.h"
#include "check/safety_oracle.h"
#include "sim/fault_injector.h"
#include "vm/address_space.h"

namespace crev::revoker {

Revoker::Revoker(sim::Scheduler &sched, vm::Mmu &mmu,
                 kern::Kernel &kernel, RevocationBitmap &bitmap,
                 const PagePolicy &policy)
    : sched_(sched), mmu_(mmu), kernel_(kernel), bitmap_(bitmap),
      sweep_(mmu, bitmap, policy)
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

namespace {

void
tracePhase(sim::SimThread &self, trace::EventType type,
           trace::Phase phase)
{
    if (trace::Tracer *tr = self.scheduler().tracer())
        tr->record(self.id(), self.core(), self.now(), type,
                   static_cast<std::uint8_t>(phase));
}

} // namespace

Revoker::PhaseBracket::PhaseBracket(sim::SimThread &self,
                                    trace::Phase phase, Cycles *record)
    : self_(self), phase_(phase), record_(record), begin_(self.now())
{
    tracePhase(self_, trace::EventType::kPhaseBegin, phase_);
}

Revoker::PhaseBracket::~PhaseBracket()
{
    if (record_ != nullptr)
        *record_ += self_.now() - begin_;
    tracePhase(self_, trace::EventType::kPhaseEnd, phase_);
}

Revoker::StwWindow::StwWindow(sim::SimThread &self, Cycles &stw)
    : StwWindow(self, &stw, /*entry_delay=*/true)
{
}

Revoker::StwWindow::StwWindow(sim::SimThread &self, Cycles *stw,
                              bool entry_delay)
    : world_(delayEntry(self, entry_delay))
{
    if (stw != nullptr)
        scan_.emplace(self, trace::Phase::kStwScan, stw);
}

sim::SimThread &
Revoker::StwWindow::delayEntry(sim::SimThread &self, bool entry_delay)
{
    sim::FaultInjector *inj = self.scheduler().injector();
    if (entry_delay && inj != nullptr) {
        // A lost-then-retried IPI: the initiating thread burns cycles
        // before the world actually stops.
        const Cycles delay = inj->stwEntryDelay(self);
        if (delay > 0)
            self.accrue(delay);
    }
    return self;
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

check::SafetyOracle *
Revoker::oracle() const
{
    return revokes() ? sched_.oracle() : nullptr;
}

void
Revoker::onDequarantine(Addr base, Addr len)
{
    audit_set_.clearRange(SummaryKey{}, base, len);
    if (check::SafetyOracle *o = oracle())
        o->clearRange(base, len);
}

void
Revoker::closeEpoch(sim::SimThread &self)
{
    kernel_.epoch().advance(kern::EpochKey{}, self); // even: complete
    check::SafetyOracle *o = oracle();
    if (o == nullptr)
        return;
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

void
Revoker::emergencyStwSweep(sim::SimThread &self, Cycles *stw)
{
    StwWindow window(self, stw, /*entry_delay=*/false);
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
        if (p.clg != gen || p.cap_load_trap)
            sweep_.publishPage(self, p, va, /*clean=*/false, gen,
                               vm::PteContext::kStw);
    });
}

void
Revoker::runEpoch(sim::SimThread &self, bool emergency)
{
    const SweepStats before = sweep_.stats();
    kernel_.epoch().advance(kern::EpochKey{}, self); // odd: in progress
    if (revokes())
        audit_set_.copyFrom(SummaryKey{}, bitmap_.painted());

    EpochTiming timing;
    if (emergency)
        emergencyStwSweep(self, &timing.stw_duration);
    else
        runPhases(self, timing);

    // The watchdog may already have closed a wedged daemon epoch.
    if (emergency || !force_completed_)
        closeEpoch(self);
    timing.recovery = emergency
        ? EpochRecovery{.degraded = true, .forced = true}
        : cur_recovery_;
    const SweepStats &after = sweep_.stats();
    timing.pages_swept = after.pages_swept - before.pages_swept;
    timing.caps_revoked = after.caps_revoked - before.caps_revoked;
    timings_.push_back(timing);
}

void
Revoker::completeEpoch(sim::SimThread &self)
{
    // §6.2: release mapping-quarantined reservations whose epoch
    // target has now passed.
    kernel_.reapQuarantinedMappings(self);
    // Wake allocators waiting on the epoch counter.
    epoch_event_.notifyAll(self);
    if (audit_hook_)
        audit_hook_(self);
}

void
Revoker::forceCompleteEpoch(sim::SimThread &self)
{
    CREV_ASSERT(epoch_in_progress_);
    CREV_ASSERT(kernel_.epoch().value() % 2 == 1);

    emergencyStwSweep(self, nullptr);
    force_completed_ = true;
    cur_recovery_.degraded = true;
    cur_recovery_.forced = true;

    // Close the epoch on the daemon's behalf; when the daemon
    // eventually resumes, runEpoch() skips its own close.
    closeEpoch(self);
    completeEpoch(self);
}

void
Revoker::emergencyEpoch(sim::SimThread &self)
{
    CREV_ASSERT(kernel_.epoch().value() % 2 == 0);
    request_pending_ = false;
    runEpoch(self, /*emergency=*/true);
    completeEpoch(self);
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

        runEpoch(self, /*emergency=*/false);
        epoch_in_progress_ = false;
        completeEpoch(self);
    }
}

} // namespace crev::revoker
