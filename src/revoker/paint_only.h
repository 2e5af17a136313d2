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

    bool revokes() const override { return false; }

  protected:
    /** The epoch's only work is the system call that asks for it. */
    void
    runPhases(sim::SimThread &self, EpochTiming &) override
    {
        self.accrue(mmu_.costs().syscall);
    }
};

} // namespace crev::revoker

#endif // CREV_REVOKER_PAINT_ONLY_H_
