#include "revoker/cornucopia.h"

#include <vector>

#include "vm/address_space.h"

namespace crev::revoker {

void
CornucopiaRevoker::runPhases(sim::SimThread &self, EpochTiming &timing)
{
    vm::AddressSpace &as = mmu_.addressSpace();
    sim::SimMutex &pmap = as.pmapLock();

    // Phase 1 (concurrent): visit all pages that have ever held
    // capabilities, clearing each page's dirty bit *before* sweeping
    // it so that mutator stores during the sweep re-flag the page.
    // Our re-implementation (paper §4.5) never clears cap_ever.
    {
        PhaseBracket conc(self, trace::Phase::kConcurrentSweep,
                          &timing.concurrent_duration);
        const std::vector<Addr> pages =
            collectPages([](const vm::Pte &p) { return p.cap_ever; });
        for (Addr va : pages) {
            pmap.lock(self);
            vm::Pte *p = as.findPte(va);
            if (p == nullptr || !p->valid) {
                pmap.unlock(self);
                continue;
            }
            sweep_.publishPage(self, *p, va, /*clean=*/false,
                               std::nullopt, vm::PteContext::kLocked);
            pmap.unlock(self);
            sweep_.sweepPage(self, va);
        }
    }

    // Phase 2 (stop-the-world): registers, hoards, and every page
    // re-dirtied while phase 1 ran.
    StwWindow stw(self, timing.stw_duration);
    scanRegistersAndHoards(self);
    const std::vector<Addr> redirtied =
        collectPages([](const vm::Pte &p) { return p.cap_dirty; });
    for (Addr va : redirtied) {
        sweep_.sweepPage(self, va);
        vm::Pte *p = as.findPte(va);
        if (p != nullptr)
            sweep_.publishPage(self, *p, va, /*clean=*/false,
                               std::nullopt, vm::PteContext::kStw);
    }
}

} // namespace crev::revoker
