/**
 * @file
 * The simulated kernel: epoch counter, kernel capability hoards, and
 * the mmap/munmap syscalls with reservation quarantine (paper §6.2).
 *
 * The kernel is where user pointers go to hide (paper §4.4): system
 * calls may hoard capabilities (kqueue/aio-style) and context-switched
 * threads' register files are saved kernel-side. All of these must be
 * scanned during the revoker's stop-the-world phase, and none may be
 * divulged unchecked afterwards. Saved register files are modelled by
 * SimThread's register array (scanned directly by the revoker); the
 * explicit hoard below models aio-style retention.
 */

#ifndef CREV_KERN_KERNEL_H_
#define CREV_KERN_KERNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"

namespace crev::revoker {
class Revoker;
} // namespace crev::revoker

namespace crev::kern {

/**
 * Permission to advance the epoch counter: only revoker::Revoker, the
 * base class that opens and closes every epoch, can make one.
 * Friendship is not inherited, so a strategy cannot.
 */
class EpochKey
{
    friend class revoker::Revoker;
    EpochKey() = default;
};

/**
 * The publicly readable revocation epoch counter (paper §2.2.3):
 * incremented before each revocation starts (odd while in progress)
 * and again after it ends.
 */
class EpochCounter
{
  public:
    /** Read the counter (cheap: a cached page in reality). */
    std::uint64_t
    read(sim::SimThread &t) const
    {
        t.accrue(4);
        return value_;
    }

    /** Kernel-internal unmetered read. */
    std::uint64_t value() const { return value_; }

    /** Advance by one: odd opens an epoch, even closes it. */
    void advance(EpochKey, sim::SimThread &t);

    /**
     * The counter value a painter must wait for so that at least one
     * revocation both begins and ends after its paints: +2 if idle
     * (even), +3 if a revocation is in flight (odd).
     */
    std::uint64_t
    dequarantineTarget(std::uint64_t at_paint) const
    {
        return at_paint + ((at_paint & 1) ? 3 : 2);
    }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Kernel-held capabilities on behalf of the user program (aio-style).
 * Slots are stable indices; the revoker scans and heals them in the
 * stop-the-world phase.
 */
class KernelHoard
{
  public:
    /** Hoard a capability; returns its slot. */
    std::size_t
    put(sim::SimThread &t, const cap::Capability &c)
    {
        t.accrue(20);
        if (!free_slots_.empty()) {
            const std::size_t s = free_slots_.back();
            free_slots_.pop_back();
            slots_[s] = c;
            return s;
        }
        slots_.push_back(c);
        return slots_.size() - 1;
    }

    /** Retrieve (and release) a hoarded capability. */
    cap::Capability
    take(sim::SimThread &t, std::size_t slot)
    {
        t.accrue(20);
        cap::Capability c = slots_.at(slot);
        slots_[slot] = cap::Capability::null();
        free_slots_.push_back(slot);
        return c;
    }

    /** All slots (revoker scan). */
    std::vector<cap::Capability> &slots() { return slots_; }

  private:
    std::vector<cap::Capability> slots_;
    std::vector<std::size_t> free_slots_;
};

/** A reservation awaiting revocation after full munmap (§6.2). */
struct QuarantinedMapping
{
    vm::Reservation *reservation;
    std::uint64_t release_target; //!< epoch counter value to wait for
};

/** The kernel façade used by the allocator and workloads. */
class Kernel
{
  public:
    Kernel(vm::Mmu &mmu, const sim::CostModel &cm);

    /**
     * Reserve anonymous memory; returns a capability over the usable
     * (requested) range, derived from the reservation.
     */
    cap::Capability sysMmap(sim::SimThread &t, Addr length,
                            bool cap_store = true);

    /**
     * Unmap a range: frames are freed, the range becomes guard pages,
     * and a fully unmapped reservation enters mapping quarantine to be
     * released only after a revocation pass (§6.2).
     */
    void sysMunmap(sim::SimThread &t, Addr base, Addr length);

    /**
     * Release mapping-quarantined reservations whose epoch target has
     * passed; called by the revoker after each epoch. The shadow bits
     * painted at quarantine time are cleared here. Returns how many
     * were released.
     */
    std::size_t reapQuarantinedMappings(sim::SimThread &t);

    EpochCounter &epoch() { return epoch_; }
    KernelHoard &hoard() { return hoard_; }
    vm::Mmu &mmu() { return mmu_; }

    /** Paint/clear hooks installed by the revocation subsystem. */
    using ShadowHook =
        std::function<void(sim::SimThread &, Addr, Addr)>;
    void
    setShadowHooks(ShadowHook paint, ShadowHook clear)
    {
        paint_ = std::move(paint);
        clear_ = std::move(clear);
    }

    /**
     * Hook that blocks the caller until no bulk revocation sweep is in
     * flight. Bulk address-space operations (munmap here; fork in the
     * paper) are excluded during sweeps (paper §4.3).
     */
    using QuiesceHook = std::function<void(sim::SimThread &)>;
    void setQuiesceHook(QuiesceHook h) { quiesce_ = std::move(h); }

  private:
    vm::Mmu &mmu_;
    const sim::CostModel &cm_;
    EpochCounter epoch_;
    KernelHoard hoard_;
    std::vector<QuarantinedMapping> quarantined_mappings_;
    /** Min release target over quarantined_mappings_: below it the
     *  reap walk would charge and release nothing, so it is skipped. */
    std::uint64_t min_release_target_ = ~std::uint64_t{0};
    ShadowHook paint_;
    ShadowHook clear_;
    QuiesceHook quiesce_;
};

} // namespace crev::kern

#endif // CREV_KERN_KERNEL_H_
