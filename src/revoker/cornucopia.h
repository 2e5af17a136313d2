/**
 * @file
 * The Cornucopia strategy (paper §2.2.5): a concurrent sweep over
 * capability-dirty pages, then a stop-the-world re-sweep of pages
 * re-dirtied during the concurrent phase, plus the register/hoard
 * scan.
 */

#ifndef CREV_REVOKER_CORNUCOPIA_H_
#define CREV_REVOKER_CORNUCOPIA_H_

#include "revoker/revoker.h"

namespace crev::revoker {

/** Two-phase (concurrent + STW) store-barrier revoker. */
class CornucopiaRevoker : public Revoker
{
  public:
    using Revoker::Revoker;

    const char *name() const override { return "cornucopia"; }

  protected:
    void runPhases(sim::SimThread &self,
                   EpochTiming &timing) override;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_CORNUCOPIA_H_
