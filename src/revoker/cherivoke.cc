#include "revoker/cherivoke.h"

#include <vector>

#include "vm/address_space.h"

namespace crev::revoker {

void
CheriVokeRevoker::doEpoch(sim::SimThread &self)
{
    kern::EpochCounter &epoch = kernel_.epoch();
    epoch.advance(self); // odd: revocation in progress
    snapshotAuditSet();

    EpochTiming timing;
    const Cycles begin = stwBegin(self);
    tracePhaseBegin(self, trace::Phase::kStwScan);

    scanRegistersAndHoards(self);

    // Visit every page that has ever held capabilities; the whole
    // sweep happens with the world stopped.
    const std::vector<Addr> pages =
        collectPages([](const vm::Pte &p) { return p.cap_ever; });
    PublishOptions dirty_clear;
    dirty_clear.set_generation = false;
    dirty_clear.charge_and_shootdown = false;
    for (Addr va : pages) {
        sweep_.sweepPage(self, va);
        vm::Pte *p = mmu_.addressSpace().findPte(va);
        if (p != nullptr)
            sweep_.publishPage(self, *p, va, dirty_clear,
                               vm::PteContext::kStw);
    }

    timing.stw_duration = self.now() - begin;
    tracePhaseEnd(self, trace::Phase::kStwScan);
    sched_.resumeWorld(self);

    finishEpoch(self); // even: complete
    timings_.push_back(timing);
}

} // namespace crev::revoker
