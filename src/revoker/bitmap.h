/**
 * @file
 * The revocation ("shadow") bitmap — paper §2.2.2.
 *
 * One bit per 16-byte granule of user address space; a set bit means
 * capabilities whose *base* falls in that granule are to be revoked.
 * The bitmap lives in simulated memory (a kernel-provided anonymous
 * object at vm::kShadowBase), so paints by the allocator and probes by
 * the sweep generate real, accounted memory traffic — CHERIvoke
 * identifies paint traffic as a first-order cost.
 *
 * A host-side mirror of the painted set is maintained in parallel;
 * it backs the off-clock Auditor and a self-check that the simulated
 * bits never diverge from the mirror. The mirror is a two-level
 * ShadowSummary, so the self-check is an O(1) word test rather than a
 * hash lookup.
 */

#ifndef CREV_REVOKER_BITMAP_H_
#define CREV_REVOKER_BITMAP_H_

#include <cstdint>

#include "base/types.h"
#include "revoker/shadow_summary.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"

namespace crev::revoker {

/** The revocation bitmap, painted by allocators, read by the sweep. */
class RevocationBitmap
{
  public:
    explicit RevocationBitmap(vm::Mmu &mmu) : mmu_(mmu) {}

    /**
     * Set the bits covering [base, base+len). Both ends must be
     * granule-aligned (allocations are).
     */
    void paint(sim::SimThread &t, Addr base, Addr len);

    /** Clear the bits covering [base, base+len) (dequarantine). */
    void clear(sim::SimThread &t, Addr base, Addr len);

    /** Probe the bit for @p addr, charging a (usually cached) load. */
    bool probe(sim::SimThread &t, Addr addr);

    /** Host-side two-level mirror of the painted granule set. */
    const ShadowSummary &painted() const { return painted_; }

    /**
     * Mutable mirror access for the Auditor's fault-domain paths:
     * chaos corruption (ShadowSummary::corruptBit) and the
     * ground-truth rebuild (ShadowSummary::rebuildBlock). Both take a
     * SummaryKey, which no simulation path can make; those keep using
     * paint()/clear().
     */
    ShadowSummary &mutableSummaryForRepair() { return painted_; }

    std::uint64_t paintedGranules() const { return painted_.count(); }

    /**
     * Test-only: deliberately tear the partial-byte read-modify-write
     * by yielding between the shadow load and store (the lost-update
     * bug the NoYield guard exists to prevent). The race checker's
     * shadow-rmw-race rule must flag the resulting interleavings.
     */
    void setTornRmwForTest(bool torn) { torn_rmw_for_test_ = torn; }

  private:
    void setRange(sim::SimThread &t, Addr base, Addr len, bool value);

    vm::Mmu &mmu_;
    ShadowSummary painted_;
    bool torn_rmw_for_test_ = false;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_BITMAP_H_
