/**
 * @file
 * The whole-machine revocation invariant checker.
 *
 * Walks every resident page, every thread's register file, and the
 * kernel hoards — off the virtual clock, between simulated
 * instructions — and verifies the paper's central guarantee (§2.2.3):
 * after an epoch completes, no tagged capability anywhere has its base
 * inside address space that was marked quarantined before that epoch
 * began. The property test suite runs this after every epoch of
 * randomized workloads under every strategy.
 */

#ifndef CREV_REVOKER_AUDITOR_H_
#define CREV_REVOKER_AUDITOR_H_

#include <string>
#include <vector>

#include "kern/kernel.h"
#include "revoker/recovery.h"
#include "revoker/revoker.h"
#include "sim/scheduler.h"
#include "vm/mmu.h"

namespace crev::revoker {

/** Off-clock invariant auditor. */
class Auditor
{
  public:
    Auditor(sim::Scheduler &sched, vm::Mmu &mmu, kern::Kernel &kernel,
            Revoker &revoker)
        : sched_(sched), mmu_(mmu), kernel_(kernel), revoker_(revoker)
    {
    }

    /**
     * Scan the machine; returns a description of each violation
     * (empty means the invariant holds).
     */
    std::vector<std::string> findViolations();

    /**
     * Scan and panic on any violation (installed as the audit hook).
     * With a thread and a fault injector attached, the painted-set
     * summary may first take a seeded bit flip; the audit detects the
     * damage and repairs the block from ground-truth shadow bytes
     * (panicking only if repair fails), all inside this call — the
     * corruption never escapes into a probe's self-check.
     */
    void check(sim::SimThread *self = nullptr);

    /** Total audits performed. */
    std::uint64_t audits() const { return audits_; }

    /** Summary corruptions detected (and repaired) so far. */
    std::uint64_t summaryRepairs() const { return summary_repairs_; }

  private:
    void checkCap(const cap::Capability &c, const std::string &where,
                  std::vector<std::string> &out);

    /**
     * Detect maintained-summary damage in the painted set and rebuild
     * the inconsistent blocks from the simulated shadow bytes (the
     * ground truth the mirror shadows). Panics if the structure is
     * still inconsistent after the bounded repair attempts.
     */
    void repairSummaries(sim::SimThread *self);

    /** Ground truth for one granule: its simulated shadow bit. */
    bool groundTruthPainted(Addr granule);

    sim::Scheduler &sched_;
    vm::Mmu &mmu_;
    kern::Kernel &kernel_;
    Revoker &revoker_;
    std::uint64_t audits_ = 0;
    std::uint64_t summary_repairs_ = 0;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_AUDITOR_H_
