/**
 * @file
 * The CHERIvoke strategy: fully world-stopped sweeping (paper §2.2.1,
 * evaluated as "our Cornucopia eschewing its concurrent phase").
 */

#ifndef CREV_REVOKER_CHERIVOKE_H_
#define CREV_REVOKER_CHERIVOKE_H_

#include "revoker/revoker.h"

namespace crev::revoker {

/** Single stop-the-world sweep per epoch. */
class CheriVokeRevoker : public Revoker
{
  public:
    using Revoker::Revoker;

    const char *name() const override { return "cherivoke"; }

  protected:
    void runPhases(sim::SimThread &self,
                   EpochTiming &timing) override;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_CHERIVOKE_H_
