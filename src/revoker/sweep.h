/**
 * @file
 * The sweep engine: the inner loop shared by every revoker.
 *
 * Sweeping a page means reading all of its cache lines (tags arrive
 * with data on a tagged-memory machine), probing the revocation bitmap
 * for each *tagged* granule using the capability's decoded base
 * (paper footnote 9), and clearing the tags of revoked capabilities.
 * Register files and kernel hoards are scanned with the same probe
 * logic.
 */

#ifndef CREV_REVOKER_SWEEP_H_
#define CREV_REVOKER_SWEEP_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "revoker/bitmap.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"

namespace crev::revoker {

/** Cumulative sweep work counters. */
struct SweepStats
{
    std::uint64_t pages_swept = 0;
    std::uint64_t lines_read = 0;
    std::uint64_t caps_seen = 0;    //!< tagged granules inspected
    std::uint64_t caps_revoked = 0; //!< tags cleared
    std::uint64_t regs_scanned = 0;
    std::uint64_t regs_revoked = 0;
};

/**
 * What a publish does with a page that re-verifies clean: the
 * machine's one page-disposition policy, fixed at construction.
 */
struct PagePolicy
{
    /** Clear cap_ever, so sweeps skip the page until a capability
     *  store sets it again. */
    bool clean_page_detection = true;
    /** §7.6: a healing publish leaves the page always-trap instead of
     *  giving it the new generation. */
    bool always_trap_clean = false;
};

/** Shared page/register sweeping machinery. */
class SweepEngine
{
  public:
    SweepEngine(vm::Mmu &mmu, RevocationBitmap &bitmap,
                const PagePolicy &policy = {})
        : mmu_(mmu), bitmap_(bitmap), policy_(policy)
    {
    }

    /**
     * Sweep the resident page at @p page_va on thread @p t. Returns
     * true if the page was found to contain no tagged capabilities
     * (the verdict clean-page detection starts from).
     *
     * Each line is charged as one read; the tagged granules within it
     * are found from the frame's packed per-line tag nibble, and every
     * tag decision is made from live state (a probe can yield).
     */
    bool sweepPage(sim::SimThread &t, Addr page_va);

    /**
     * Scan a register array (a thread's register file or a kernel
     * hoard), revoking painted capabilities in place.
     */
    void scanRegisters(sim::SimThread &t,
                       std::vector<cap::Capability> &regs);

    /** Whether a single capability is slated for revocation. */
    bool isRevoked(sim::SimThread &t, const cap::Capability &c);

    /**
     * The single choke point through which every strategy publishes an
     * in-place PTE disposition. Declares the publish to the address
     * space (race-checker observation, or a hard locking assertion when
     * no checker is attached), re-verifies the caller's @p clean
     * verdict against live tags, applies the policy to a clean page and
     * clears the capability-dirty bit.
     *
     * A healing publish (@p heal_gen set) also refreshes the page's
     * load-barrier state to *heal_gen, or to always-trap, and pays for
     * a PTE update and a TLB shootdown: TLBs cache the generation and
     * trap bits. A dirty-bit clear alone needs no shootdown, because
     * capability stores read cap_dirty from the live PTE.
     */
    void publishPage(sim::SimThread &t, vm::Pte &p, Addr page_va,
                     bool clean, std::optional<unsigned> heal_gen,
                     vm::PteContext ctx);

    /**
     * One concurrent, idempotent page visit (§4.3), shared by the load
     * barrier's fault handler and every background sweep. It reads the
     * generation first; under the pmap lock it checks that the page is
     * mapped and, when @p heal, stale; it sweeps without the lock (only
     * a page that has ever held capabilities); and under a second
     * acquisition it re-checks and publishes, healing the page to the
     * generation read at the start. Publishing the generation current
     * at the relock instead would mark the page swept for an epoch that
     * opened mid-sweep, after the sweep had passed capabilities to
     * objects that epoch revokes. Returns false if the page was not
     * mapped at the first check.
     */
    bool visitPage(sim::SimThread &t, Addr va, bool heal);

    const SweepStats &stats() const { return stats_; }

  private:
    vm::Mmu &mmu_;
    RevocationBitmap &bitmap_;
    const PagePolicy policy_;
    SweepStats stats_;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_SWEEP_H_
