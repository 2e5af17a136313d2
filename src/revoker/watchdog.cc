#include "revoker/watchdog.h"

#include <algorithm>

#include "base/logging.h"
#include "vm/address_space.h"

namespace crev::revoker {

Cycles
EpochWatchdog::deadline() const
{
    const auto pages =
        static_cast<double>(mmu_.addressSpace().residentPages());
    const double budget =
        pages * static_cast<double>(policy_.per_page_cycles) *
        policy_.slack;
    // Clamp before the cast: double -> uint64 is UB once the budget
    // exceeds the representable range (huge heaps x large slack).
    constexpr double kMaxBudget = 1e18;
    return std::max(policy_.min_deadline,
                    static_cast<Cycles>(std::min(budget, kMaxBudget)));
}

Cycles
EpochWatchdog::backoffDelay(unsigned attempt) const
{
    return saturatingBackoff(policy_.backoff_base, policy_.max_backoff,
                             attempt);
}

void
EpochWatchdog::traceEscalation(sim::SimThread &self, unsigned rung)
{
    if (trace::Tracer *tr = sched_.tracer())
        tr->record(self.id(), self.core(), self.now(),
                   trace::EventType::kWatchdogEscalate,
                   static_cast<std::uint8_t>(rung));
}

void
EpochWatchdog::nudgeRound(sim::SimThread &self)
{
    const auto dead = rev_.reapDeadSweepers(self);
    stats_.sweepers_reaped += dead.size();
    for (std::size_t i = 0; i < dead.size(); ++i) {
        if (!respawn_ ||
            stats_.sweepers_respawned >= policy_.max_respawns)
            break;
        if (sim::SimThread *nt = respawn_(self); nt != nullptr) {
            (void)nt; // the respawn callback registers it
            ++stats_.sweepers_respawned;
            ++rev_.currentRecovery().respawns;
        }
    }
    rev_.nudge(self);
    ++stats_.nudges;
    ++rev_.currentRecovery().nudges;
}

void
EpochWatchdog::daemonBody(sim::SimThread &self)
{
    std::uint64_t watched_seq = 0;
    unsigned attempt = 0;
    // With a recovery manager attached, each overdue epoch becomes a
    // kEpochLadder ticket whose attempts mirror the escalation rounds.
    // Purely observational: the ladder's timings and rung order are
    // the same without one.
    RecoveryManager *recovery = sched_.recovery();
    RecoveryManager::Ticket ladder;
    const auto closeLadder = [&](trace::RecoveryOutcome o) {
        if (recovery != nullptr && ladder.open)
            recovery->close(self, ladder, o);
    };

    for (;;) {
        self.sleep(policy_.poll_interval);
        if (sched_.shuttingDown())
            return;

        if (rev_.epochInProgress() && rev_.forceCompleted()) {
            // The epoch was already completed by fiat but the daemon
            // remains wedged inside it. Keep nudging it home, and
            // serve any new request it cannot take as a full
            // emergency epoch so allocators never stall behind it.
            if (rev_.requestPending()) {
                traceEscalation(self, 4);
                rev_.emergencyEpoch(self);
                ++stats_.emergency_epochs;
            }
            rev_.nudge(self);
            continue;
        }

        if (!rev_.epochInProgress()) {
            // The watched epoch (if any) reached completion.
            closeLadder(trace::RecoveryOutcome::kSucceeded);
            attempt = 0;
            continue;
        }
        if (rev_.epochSeq() != watched_seq) {
            closeLadder(trace::RecoveryOutcome::kSucceeded);
            watched_seq = rev_.epochSeq();
            attempt = 0;
        }

        if (self.now() - rev_.epochStartedAt() <= deadline())
            continue;

        // Overdue: climb the degradation ladder. Each escalation round
        // is one attempt on the epoch's kEpochLadder ticket.
        if (attempt == 0) {
            ++stats_.deadline_misses;
            if (recovery != nullptr && !ladder.open)
                ladder = recovery->open(
                    self, trace::RecoveryProtocol::kEpochLadder);
        }
        if (recovery != nullptr)
            (void)recovery->attempt(self, ladder);
        stats_.stalled_threads +=
            sched_.stalledThreads(self.now(), deadline()).size();
        if (attempt < policy_.max_nudges) {
            traceEscalation(self, 1);
            nudgeRound(self);
        } else if (attempt == policy_.max_nudges) {
            traceEscalation(self, 2);
            rev_.requestRecovery(self);
            ++stats_.recovery_requests;
        } else if (kernel_.epoch().value() % 2 == 1) {
            traceEscalation(self, 3);
            rev_.forceCompleteEpoch(self);
            ++stats_.stw_fallbacks;
            closeLadder(trace::RecoveryOutcome::kSucceeded);
            // The epoch is now complete (by fiat); the ladder must
            // re-arm rather than carry this escalation level into the
            // next epoch and instantly force-complete it too. The seq
            // check above resets attempt when the *daemon* starts a
            // fresh epoch, but emergency epochs served on the watchdog
            // thread never bump the seq — reset explicitly.
            attempt = 0;
            self.sleep(backoffDelay(1));
            if (sched_.shuttingDown())
                return;
            continue;
        } else {
            // Counter already even but the daemon epoch has not returned:
            // the daemon is wedged past the point of no safety
            // consequence; keep waking it.
            rev_.nudge(self);
        }
        ++attempt;

        // Exponential backoff before re-judging the same epoch.
        self.sleep(backoffDelay(attempt));
        if (sched_.shuttingDown())
            return;
    }
}

} // namespace crev::revoker
