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
    for (Addr va : pages) {
        sweep_.sweepPage(self, va);
        vm::Pte *p = mmu_.addressSpace().findPte(va);
        if (p != nullptr)
            sweep_.publishPage(self, *p, va, /*clean=*/false,
                               std::nullopt, vm::PteContext::kStw);
    }
}

} // namespace crev::revoker
