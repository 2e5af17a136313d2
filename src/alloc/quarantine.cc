#include "alloc/quarantine.h"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "base/logging.h"
#include "check/race_checker.h"
#include "sim/fault_injector.h"

namespace crev::alloc {

QuarantineShim::QuarantineShim(SnmallocLite &snm, kern::Kernel &kernel,
                               revoker::Revoker *revoker,
                               revoker::RevocationBitmap *bitmap,
                               const QuarantinePolicy &policy)
    : snm_(snm), kernel_(kernel), revoker_(revoker), bitmap_(bitmap),
      policy_(policy)
{
    CREV_ASSERT((revoker_ == nullptr) == (bitmap_ == nullptr));
}

std::size_t
QuarantineShim::threshold() const
{
    const auto by_ratio = static_cast<std::size_t>(
        policy_.alloc_ratio * static_cast<double>(snm_.liveBytes()));
    return std::max(policy_.min_bytes, by_ratio);
}

void
QuarantineShim::maybeDequarantine(sim::SimThread &t)
{
    const std::uint64_t now = kernel_.epoch().value();
    check::RaceChecker *checker = t.scheduler().checker();
    if (checker != nullptr)
        checker->onQuarantineAccess(t.id(), t.now(),
                                    heap_lock_.heldBy(t));
    for (Buffer &b : buffers_) {
        if (!b.awaiting || now < b.target)
            continue;
        if (checker != nullptr)
            checker->onDequarantineRelease(t.id(), t.now(), b.target,
                                           now);
        // Detach the buffer *before* releasing its entries: the
        // release path yields (simulated memory traffic), and another
        // heap user may re-enter; detaching first makes the release
        // idempotent.
        std::vector<Entry> entries;
        entries.swap(b.entries);
        b.bytes = 0;
        b.awaiting = false;
        b.target = 0;
        // The revoking epoch has completed: every capability to these
        // objects is gone; unpaint and recycle.
        for (const Entry &e : entries) {
            bitmap_->clear(t, e.base, e.size);
            revoker_->onDequarantine(e.base, e.size);
            snm_.deallocRaw(t, e.base);
            CREV_ASSERT(quarantine_bytes_ >= e.size);
            quarantine_bytes_ -= e.size;
        }
    }
}

void
QuarantineShim::maybeTrigger(sim::SimThread &t)
{
    Buffer &b = buffers_[cur_];
    Buffer &other = buffers_[cur_ ^ 1];
    if (auto *c = t.scheduler().checker())
        c->onQuarantineAccess(t.id(), t.now(), heap_lock_.heldBy(t));
    // Trigger on the *total* quarantine, not this buffer's share:
    // comparing only b.bytes let quarantine reach ~2x the policy
    // ratio while the other buffer awaited its epoch (its bytes
    // vanished from the comparison). One submission at a time,
    // though: while the other buffer is in flight, these entries
    // could not join its epoch anyway, so the current buffer waits
    // for the pipeline — backpressure past block_factor comes from
    // maybeBlock, which also watches the total now.
    if (b.awaiting || other.awaiting || b.bytes == 0 ||
        quarantine_bytes_ <= threshold())
        return;

    // Submission must be atomic w.r.t. other heap users: the epoch
    // read accrues cycles and could otherwise yield between the
    // check above and the state updates below.
    sim::SimThread::NoYield guard(t);
    const std::uint64_t e = kernel_.epoch().read(t);
    b.target = kernel_.epoch().dequarantineTarget(e);
    b.awaiting = true;
    ++stats_.revocations_triggered;
    stats_.sum_alloc_at_trigger += snm_.liveBytes();
    stats_.sum_quar_at_trigger += quarantine_bytes_;
    sendEpochRequest(t);

    // Frees continue into the other buffer meanwhile.
    cur_ ^= 1;
}

bool
QuarantineShim::handoffFaultsArmed(sim::SimThread &t) const
{
    const sim::FaultInjector *inj = t.scheduler().injector();
    return inj != nullptr && (inj->plan().quarantine_drop_prob > 0.0 ||
                              inj->plan().quarantine_duplicate_prob > 0.0);
}

void
QuarantineShim::sendEpochRequest(sim::SimThread &t)
{
    sim::FaultInjector *inj = t.scheduler().injector();
    if (inj != nullptr && inj->dropQuarantineHandoff(t))
        return; // lost in flight; the waiter detects and re-sends
    revoker_->requestEpoch(t);
    if (inj != nullptr && inj->duplicateQuarantineHandoff(t))
        revoker_->requestEpoch(t); // idempotent while one is pending
}

void
QuarantineShim::waitForCounterRecovering(sim::SimThread &t,
                                         std::uint64_t target)
{
    if (!handoffFaultsArmed(t)) {
        revoker_->waitForEpochCounter(t, target);
        return;
    }
    revoker::RecoveryManager *recovery = t.scheduler().recovery();
    // SimEvent has no timed wait, so the recovering variant is a
    // sleep-poll loop; the poll period is well under any epoch.
    constexpr Cycles kPoll = 250'000;
    revoker::RecoveryManager::Ticket tk;
    while (kernel_.epoch().value() < target) {
        if (t.scheduler().shuttingDown()) {
            // Shutdown can land mid-recovery: close the ticket with
            // an aborted outcome instead of leaking it open (every
            // opened ticket must reach a terminal state).
            if (recovery != nullptr && tk.open)
                recovery->close(t, tk, trace::RecoveryOutcome::kAborted);
            return;
        }
        if (!revoker_->requestPending() &&
            !revoker_->epochInProgress()) {
            // Counter short, nothing queued, nothing running: the
            // hand-off was dropped in flight. Re-send it.
            if (recovery != nullptr) {
                if (!tk.open)
                    tk = recovery->open(
                        t, trace::RecoveryProtocol::kQuarantineHandoff);
                if (recovery->attempt(t, tk)) {
                    ++stats_.handoff_resends;
                    sendEpochRequest(t);
                    t.sleep(recovery->backoff(tk));
                    continue;
                }
                // Retries exhausted (or the protocol deadline passed):
                // close the ticket and degrade to a direct request on
                // the unfaultable path plus a plain wait.
                recovery->close(t, tk,
                                recovery->failureOutcome(t.now(), tk));
                revoker_->requestEpoch(t);
                revoker_->waitForEpochCounter(t, target);
                return;
            }
            ++stats_.handoff_resends;
            sendEpochRequest(t);
        }
        t.sleep(kPoll);
    }
    if (recovery != nullptr && tk.open)
        recovery->close(t, tk, trace::RecoveryOutcome::kSucceeded);
}

void
QuarantineShim::maybeBlock(sim::SimThread &t)
{
    // mrs blocks an allocation or free when quarantine is
    // pathologically oversized (the "over twice full" condition,
    // §5.3): both buffers awaiting revocation (drain paths), or the
    // *total* quarantine past block_factor x threshold while an
    // epoch is in flight — wait for the oldest awaiting target so a
    // buffer drains.
    for (;;) {
        maybeDequarantine(t);
        const bool awaiting0 = buffers_[0].awaiting;
        const bool awaiting1 = buffers_[1].awaiting;
        const bool both = awaiting0 && awaiting1;
        const bool over =
            (awaiting0 || awaiting1) &&
            static_cast<double>(quarantine_bytes_) >
                policy_.block_factor *
                    static_cast<double>(threshold());
        if (!both && !over)
            return;
        ++stats_.blocked_ops;
        std::uint64_t target = ~std::uint64_t{0};
        for (const Buffer &b : buffers_)
            if (b.awaiting)
                target = std::min(target, b.target);
        const Cycles wait_begin = t.now();
        trace::Tracer *tr = t.scheduler().tracer();
        if (tr != nullptr)
            tr->record(t.id(), t.core(), wait_begin,
                       trace::EventType::kQuarantineBlock, 0, target);
        waitForCounterRecovering(t, target);
        if (tr != nullptr)
            tr->record(t.id(), t.core(), t.now(),
                       trace::EventType::kQuarantineUnblock, 0, target);
        stats_.blocked_cycles += t.now() - wait_begin;
        if (t.scheduler().shuttingDown())
            return;
    }
}

void
QuarantineShim::quarantineLocked(sim::SimThread &t, Addr base,
                                 std::size_t size)
{
    // Paint the revocation bitmap over the whole allocation.
    bitmap_->paint(t, base, size);

    // Never push into a buffer already awaiting its epoch: such an
    // entry would be recycled without having been revoked. Blocking
    // guarantees a non-awaiting buffer exists (except at shutdown,
    // when no reuse happens anyway).
    maybeBlock(t);
    if (buffers_[cur_].awaiting && !buffers_[cur_ ^ 1].awaiting)
        cur_ ^= 1;

    Buffer &b = buffers_[cur_];
    if (auto *c = t.scheduler().checker())
        c->onQuarantineAccess(t.id(), t.now(), heap_lock_.heldBy(t));
    b.entries.push_back(Entry{base, size});
    b.bytes += size;
    quarantine_bytes_ += size;
    stats_.sum_freed_bytes += size;
    stats_.max_quarantine_bytes =
        std::max<std::uint64_t>(stats_.max_quarantine_bytes,
                                quarantine_bytes_);

    maybeTrigger(t);
}

cap::Capability
QuarantineShim::malloc(sim::SimThread &t, std::size_t size)
{
    Locked guard(heap_lock_, t);
    if (enabled()) {
        maybeDequarantine(t);
        maybeTrigger(t);
        maybeBlock(t);
        ensureAddressSpaceFor(t, size);
    }
    return snm_.alloc(t, size);
}

void
QuarantineShim::ensureAddressSpaceFor(sim::SimThread &t,
                                      std::size_t size)
{
    const std::size_t demand = snm_.mmapDemandFor(size);
    if (demand == 0)
        return;
    vm::AddressSpace &as = kernel_.mmu().addressSpace();
    if (as.canReserve(demand))
        return;

    // Address space exhausted while bytes sit in quarantine: degrade
    // to an emergency drain — every quarantined object is revoked and
    // recycled — instead of letting reserve() assert.
    ++stats_.emergency_reclaims;
    warn("quarantine: address space exhausted (demand=%zu bytes); "
         "forcing emergency reclaim",
         demand);
    drainLocked(t);
    if (!as.canReserve(demand))
        throw std::bad_alloc();
}

void
QuarantineShim::free(sim::SimThread &t, const cap::Capability &c)
{
    Locked guard(heap_lock_, t);
    if (!c.tag)
        throw std::logic_error("free of an untagged capability");

    if (!enabled()) {
        snm_.dealloc(t, c);
        return;
    }

    // Validate and retire from the live set; the object's lifetime is
    // logically extended until revocation (no poisoning or zeroing:
    // deferral motivations in paper §2.2.2).
    snm_.retire(c.base);
    const std::size_t size = snm_.objectSize(c.base);
    t.accrue(t.scheduler().costs().free_overhead);
    quarantineLocked(t, c.base, size);
}

void
QuarantineShim::drain(sim::SimThread &t)
{
    // The baseline has no quarantine: no lock traffic at all.
    if (!enabled())
        return;
    Locked guard(heap_lock_, t);
    drainLocked(t);
}

void
QuarantineShim::drainLocked(sim::SimThread &t)
{
    for (;;) {
        const bool pending =
            buffers_[0].bytes > 0 || buffers_[1].bytes > 0 ||
            buffers_[0].awaiting || buffers_[1].awaiting;
        if (!pending)
            return;
        for (Buffer &b : buffers_) {
            if (b.bytes > 0 && !b.awaiting) {
                const std::uint64_t e = kernel_.epoch().read(t);
                b.target = kernel_.epoch().dequarantineTarget(e);
                b.awaiting = true;
                sendEpochRequest(t);
            }
        }
        std::uint64_t target = 0;
        for (const Buffer &b : buffers_)
            if (b.awaiting)
                target = std::max(target, b.target);
        waitForCounterRecovering(t, target);
        if (t.scheduler().shuttingDown())
            return;
        maybeDequarantine(t);
    }
}

} // namespace crev::alloc
