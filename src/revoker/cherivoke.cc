#include "revoker/cherivoke.h"

#include <vector>

#include "vm/address_space.h"

namespace crev::revoker {

void
CheriVokeRevoker::runPhases(sim::SimThread &self, EpochTiming &timing)
{
    StwWindow stw(self, timing.stw_duration);
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
}

} // namespace crev::revoker
