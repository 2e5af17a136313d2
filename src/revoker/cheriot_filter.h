/**
 * @file
 * A CHERIoT-style load *filter* (paper §6.3), adapted to this
 * MMU-based machine as a point of comparison.
 *
 * CHERIoT's capability-load instruction probes the revocation bitmap
 * directly and clears the tag of a revoked capability on its way into
 * the register file — no traps, no software intervention, and no
 * UAF/UAR gap visible to clients. CHERIoT affords this because its
 * bitmap lives in tightly-coupled memory; here the probe goes through
 * the ordinary cache hierarchy, so the filter taxes *every* tagged
 * capability load a (usually cached) bitmap access instead of taxing
 * revocation-epoch pages with faults.
 *
 * Epochs still exist (memory must eventually be swept so quarantine
 * can drain and bitmap bits can be recycled), but the filter removes
 * the need for any load-generation machinery: the background sweep is
 * the whole epoch, there is no per-page trap state, and the STW phase
 * only scans registers and hoards.
 */

#ifndef CREV_REVOKER_CHERIOT_FILTER_H_
#define CREV_REVOKER_CHERIOT_FILTER_H_

#include "revoker/revoker.h"

namespace crev::revoker {

/** Inline-filtering revoker: loads self-filter, background sweeps. */
class CheriotFilterRevoker : public Revoker
{
  public:
    using Revoker::Revoker;

    const char *name() const override { return "cheriot-filter"; }

    /**
     * The load filter, installed as the Mmu's capability-load hook:
     * probes the bitmap for the loaded capability's base and reports
     * whether the tag must be stripped. Charged to the loading
     * thread.
     */
    bool filterLoad(sim::SimThread &t, const cap::Capability &c);

    /** Loads filtered (probes made) and tags stripped. */
    std::uint64_t probes() const { return probes_; }
    std::uint64_t stripped() const { return stripped_; }

  protected:
    void runPhases(sim::SimThread &self,
                   EpochTiming &timing) override;

  private:
    std::uint64_t probes_ = 0;
    std::uint64_t stripped_ = 0;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_CHERIOT_FILTER_H_
