/**
 * @file
 * The simulated process address space.
 *
 * Virtual memory is handed out as *reservations* (paper §6.2): each
 * mmap-like request is padded to CHERI-representable alignment and
 * backed by guard mappings once partially unmapped, so holes can never
 * be refilled by a later mapping. A fully unmapped reservation is
 * *quarantined* and only released after a revocation pass has erased
 * capabilities referencing it.
 *
 * Pages are demand-zero: the first touch allocates a physical frame.
 * The page table is one flat array of per-page slots for each of the
 * two VA windows (heap, shadow), walked in ascending VA order.
 */

#ifndef CREV_VM_ADDRESS_SPACE_H_
#define CREV_VM_ADDRESS_SPACE_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "base/types.h"
#include "mem/phys_mem.h"
#include "sim/sync.h"
#include "vm/pte.h"

namespace crev::kern {
class Kernel;
} // namespace crev::kern

namespace crev::vm {

/**
 * Permission to tear down mappings: unmap a range, take the
 * reservations it quarantined, release a revoked one. Only
 * kern::Kernel can make a key. Its munmap path runs behind the
 * quiesce barrier that excludes it from revocation sweeps (paper
 * §4.3), and its reap path runs at epoch completion (§6.2).
 */
class MappingKey
{
    friend class kern::Kernel;
    MappingKey() = default;
};

/** Lifecycle of a reservation. */
enum class ReservationState {
    kActive,      //!< at least one page still mapped
    kQuarantined, //!< fully unmapped; awaiting revocation
    kFreed,       //!< revoked and released
};

/** One mmap-style reservation. */
struct Reservation
{
    Addr base = 0;
    Addr length = 0; //!< padded to representable alignment
    Addr requested = 0;
    ReservationState state = ReservationState::kActive;
    Addr mapped_bytes = 0;
    /** Epoch in which quarantine began (set by the kernel layer). */
    std::uint64_t quarantine_epoch = 0;
};

/** Fixed address-space layout. */
constexpr Addr kHeapBase = 0x0000'4000'0000ull;
constexpr Addr kHeapCeiling = 0x0000'8000'0000ull;
/** Shadow (revocation bitmap) region: byte for VA v at base + (v>>7). */
constexpr Addr kShadowBase = 0x2000'0000'0000ull;

/** Shadow-bitmap byte address covering virtual address @p va. */
constexpr Addr
shadowByteFor(Addr va)
{
    return kShadowBase + (va >> (kGranuleBits + 3));
}

/**
 * Locking context a caller claims when publishing an in-place PTE
 * mutation (clearing CapDirty, setting CLG/trap bits): either the pmap
 * lock is held, or the caller owns an active stop-the-world window.
 */
enum class PteContext {
    kLocked, //!< publisher holds the pmap lock
    kStw,    //!< publisher owns the stop-the-world window
};

/** The vmspace: reservations, page table, pmap lock. */
class AddressSpace
{
  public:
    explicit AddressSpace(mem::PhysMem &pm);

    /**
     * Reserve @p length bytes of zeroed anonymous memory; the
     * reservation is padded per capability representability. Returns
     * the base address.
     */
    Addr reserve(Addr length, bool cap_store = true);

    /**
     * Whether a reserve(@p length) would fit below the heap ceiling
     * (same padding/alignment math, no side effects). The allocator
     * probes this before mmap so address-space exhaustion can degrade
     * to emergency quarantine reclaim instead of tripping reserve()'s
     * assertion.
     */
    bool canReserve(Addr length) const;

    /**
     * Unmap [base, base+length) inside one reservation. Freed frames
     * return to the physical pool immediately; the virtual range
     * becomes guard pages. When the whole reservation is unmapped it
     * transitions to kQuarantined and is reported via
     * takeNewlyQuarantined() for the revoker to process.
     */
    void unmap(MappingKey, sim::SimThread &t, Addr base, Addr length);

    /** Reservations that became quarantined since the last call. */
    std::vector<Reservation *> takeNewlyQuarantined(MappingKey,
                                                    sim::SimThread &t);

    /** Release a revoked reservation (kernel layer, post-epoch). */
    void release(MappingKey, sim::SimThread &t, Reservation *r);

    /** The reservation containing @p va, or nullptr. */
    Reservation *reservationFor(Addr va);

    /**
     * PTE for @p va, or nullptr where the page has no entry: outside
     * every reservation (alignment gaps included) or in a released
     * one. Entries never move, so the pointer stays valid.
     */
    Pte *findPte(Addr va);

    /**
     * Classify a touch of @p va (no side effects). @p pte_out, when
     * given, receives findPte(va) from the same table lookup.
     */
    FaultKind classify(Addr va, bool is_store, bool is_cap_store,
                       Pte **pte_out = nullptr);

    /** Make the page containing @p va resident (demand-zero). */
    Pte &makeResident(Addr va);

    /**
     * Iterate over resident pages in ascending VA order. @p fn
     * receives the page's base VA and its PTE.
     */
    void forEachResidentPage(
        const std::function<void(Addr, Pte &)> &fn);

    /** Number of resident pages (RSS in pages). */
    std::size_t residentPages() const { return resident_; }

    /** The pmap lock serialising PTE updates during revocation. */
    sim::SimMutex &pmapLock() { return pmap_lock_; }

    /**
     * Declare that @p t is about to publish an in-place mutation of the
     * PTE for @p va under locking context @p ctx. With a race checker
     * attached this forwards the (uncharged) observation and lets the
     * run continue so the checker can report; without one it is a hard
     * assertion that the claimed discipline actually holds.
     */
    void notePtePublish(sim::SimThread &t, Addr va, PteContext ctx);

    /** Frames freed since construction whose caches must be purged. */
    std::vector<Addr> takeFreedFrames();

    mem::PhysMem &physMem() { return pm_; }

    /** Bytes currently mapped across active reservations. */
    Addr mappedBytes() const { return mapped_bytes_; }

    /** Whether @p va lies in the shadow-bitmap region. */
    static bool inShadow(Addr va);

  private:
    /** One page's slot: its PTE plus the table's own state for it. */
    struct Slot
    {
        Pte pte;
        bool present = false; //!< has an entry: findPte() is non-null
        bool guard = false;   //!< guard page: every touch faults
    };

    /**
     * One window of the page table (DESIGN.md §14.4): the slots for
     * the pages of [base, end), indexed by (va - base) / kPageSize.
     * They live in fixed-size leaves allocated on first use, so memory
     * grows only with the VA range in use, and a slot never moves:
     * revokers hold Pte pointers across yields, and release() resets
     * slots in place.
     */
    class Window
    {
      public:
        Window(Addr base, Addr end);

        /** Slot of page base @p page; null outside the window or
         *  before its leaf exists. */
        Slot *
        find(Addr page) const
        {
            const Addr i = (page - base_) / kPageSize; // wraps if below
            if (i >= size_)
                return nullptr;
            Leaf *leaf = leaves_[i / kLeafPages].get();
            return leaf == nullptr ? nullptr : &(*leaf)[i % kLeafPages];
        }

        /** Slot of page base @p page, which must lie in the window;
         *  allocates its leaf. */
        Slot &at(Addr page);

        /** Reset the slot of page base @p page to "no entry" in
         *  place; its guard state stays. */
        void erase(Addr page);

        /** Visit every allocated slot in ascending VA order. Leaves
         *  @p fn allocates ahead of the walk are visited too. */
        template <typename Fn>
        void
        forEach(Fn fn) const
        {
            for (std::size_t l = 0; l < leaves_.size(); ++l) {
                Leaf *leaf = leaves_[l].get();
                if (leaf == nullptr)
                    continue;
                const Addr first = base_ + l * kLeafPages * kPageSize;
                for (std::size_t i = 0; i < kLeafPages; ++i)
                    fn(first + i * kPageSize, (*leaf)[i]);
            }
        }

      private:
        static constexpr std::size_t kLeafPages = 512;
        using Leaf = std::array<Slot, kLeafPages>;

        Addr base_;
        Addr size_;
        std::vector<std::unique_ptr<Leaf>> leaves_;
    };

    /** The window that would hold page base @p page. */
    Window &
    windowFor(Addr page)
    {
        return page < kShadowBase ? heap_slots_ : shadow_slots_;
    }

    mem::PhysMem &pm_;
    Window heap_slots_;
    Window shadow_slots_;
    std::map<Addr, Reservation> reservations_; //!< keyed by base
    std::vector<Reservation *> newly_quarantined_;
    std::vector<Addr> freed_frames_;
    sim::SimMutex pmap_lock_{"pmap"};
    Addr next_va_ = kHeapBase;
    Addr mapped_bytes_ = 0;
    std::size_t resident_ = 0;
};

} // namespace crev::vm

#endif // CREV_VM_ADDRESS_SPACE_H_
