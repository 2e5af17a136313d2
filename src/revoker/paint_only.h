/**
 * @file
 * "Paint+sync" (paper §5): the userspace quarantine machinery —
 * bitmap painting, epoch waits — with no revocation pass at all. It
 * provides no temporal safety; it exists to isolate quarantine
 * overheads from sweep overheads in the experiments.
 */

#ifndef CREV_REVOKER_PAINT_ONLY_H_
#define CREV_REVOKER_PAINT_ONLY_H_

#include "revoker/revoker.h"

namespace crev::revoker {

/** Epochs advance instantly; nothing is swept. */
class PaintOnlyRevoker : public Revoker
{
  public:
    using Revoker::Revoker;

    const char *name() const override { return "paint+sync"; }

    /** Nothing is revoked, so nothing is committed to the oracle. */
    bool commitsToOracle() const override { return false; }

  protected:
    void
    doEpoch(sim::SimThread &self) override
    {
        // No snapshotAuditSet(): this strategy makes no revocation
        // guarantee, so there is nothing to audit.
        kernel_.epoch().advance(self);
        self.accrue(mmu_.costs().syscall);
        finishEpoch(self);
        timings_.push_back(EpochTiming{});
    }
};

} // namespace crev::revoker

#endif // CREV_REVOKER_PAINT_ONLY_H_
