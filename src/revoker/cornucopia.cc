#include "revoker/cornucopia.h"

#include <vector>

#include "vm/address_space.h"

namespace crev::revoker {

void
CornucopiaRevoker::doEpoch(sim::SimThread &self)
{
    kern::EpochCounter &epoch = kernel_.epoch();
    vm::AddressSpace &as = mmu_.addressSpace();
    sim::SimMutex &pmap = as.pmapLock();

    epoch.advance(self); // odd
    snapshotAuditSet();

    EpochTiming timing;

    // Phase 1 (concurrent): visit all pages that have ever held
    // capabilities, clearing each page's dirty bit *before* sweeping
    // it so that mutator stores during the sweep re-flag the page.
    // Our re-implementation (paper §4.5) never clears cap_ever.
    const Cycles cbegin = self.now();
    tracePhaseBegin(self, trace::Phase::kConcurrentSweep);
    const std::vector<Addr> pages =
        collectPages([](const vm::Pte &p) { return p.cap_ever; });
    PublishOptions dirty_clear;
    dirty_clear.set_generation = false;
    dirty_clear.charge_and_shootdown = false;
    for (Addr va : pages) {
        pmap.lock(self);
        vm::Pte *p = as.findPte(va);
        if (p == nullptr || !p->valid) {
            pmap.unlock(self);
            continue;
        }
        sweep_.publishPage(self, *p, va, dirty_clear,
                           vm::PteContext::kLocked);
        pmap.unlock(self);
        sweep_.sweepPage(self, va);
    }
    tracePhaseEnd(self, trace::Phase::kConcurrentSweep);
    timing.concurrent_duration = self.now() - cbegin;

    // Phase 2 (stop-the-world): registers, hoards, and every page
    // re-dirtied while phase 1 ran.
    const Cycles begin = stwBegin(self);
    tracePhaseBegin(self, trace::Phase::kStwScan);
    scanRegistersAndHoards(self);
    const std::vector<Addr> redirtied =
        collectPages([](const vm::Pte &p) { return p.cap_dirty; });
    for (Addr va : redirtied) {
        sweep_.sweepPage(self, va);
        vm::Pte *p = as.findPte(va);
        if (p != nullptr)
            sweep_.publishPage(self, *p, va, dirty_clear,
                               vm::PteContext::kStw);
    }
    timing.stw_duration = self.now() - begin;
    tracePhaseEnd(self, trace::Phase::kStwScan);
    sched_.resumeWorld(self);

    finishEpoch(self); // even
    timings_.push_back(timing);
}

} // namespace crev::revoker
