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
 * Per-site knobs for SweepEngine::publishPage(). Each revocation
 * strategy publishes page dispositions with a different subset of the
 * full Reloaded behaviour; the options select exactly the writes (and
 * charges) the site performed before the choke point existed.
 */
struct PublishOptions
{
    unsigned gen = 0;     //!< generation to publish (set_generation)
    bool clean = false;   //!< caller's (possibly stale) sweep verdict
    /** Clear cap_ever when the page re-verifies clean. */
    bool clean_page_detection = false;
    /** §7.6: clean pages keep an always-trap disposition. */
    bool always_trap_clean = false;
    /** Refresh CLG / load-trap bits (epoch-healing sites). */
    bool set_generation = true;
    /** Charge the PTE update and shoot down the page's translations. */
    bool charge_and_shootdown = true;
};

/** Shared page/register sweeping machinery. */
class SweepEngine
{
  public:
    SweepEngine(vm::Mmu &mmu, RevocationBitmap &bitmap)
        : mmu_(mmu), bitmap_(bitmap)
    {
    }

    /**
     * Sweep the resident page at @p page_va on thread @p t. Returns
     * true if the page was found to contain no tagged capabilities
     * (Reloaded's clean-page detection).
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
     * in-place PTE disposition (CLG/trap refresh, cap-dirty clear,
     * clean-page detection). Declares the publish to the address space
     * (race-checker observation, or a hard locking assertion when no
     * checker is attached), re-verifies cleanliness against live tags,
     * and applies exactly the writes selected by @p o. Returns the
     * re-verified clean verdict.
     */
    bool publishPage(sim::SimThread &t, vm::Pte &p, Addr page_va,
                     const PublishOptions &o, vm::PteContext ctx);

    const SweepStats &stats() const { return stats_; }

  private:
    vm::Mmu &mmu_;
    RevocationBitmap &bitmap_;
    SweepStats stats_;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_SWEEP_H_
