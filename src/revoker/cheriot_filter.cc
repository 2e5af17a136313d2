#include "revoker/cheriot_filter.h"

#include <vector>

namespace crev::revoker {

bool
CheriotFilterRevoker::filterLoad(sim::SimThread &t,
                                 const cap::Capability &c)
{
    ++probes_;
    const bool revoked = sweep_.isRevoked(t, c);
    if (revoked)
        ++stripped_;
    // Not self-healing (paper footnote 28): the in-memory copy keeps
    // its tag until the background sweep visits it; only the value
    // entering the register file is stripped.
    return revoked;
}

void
CheriotFilterRevoker::runPhases(sim::SimThread &self, EpochTiming &timing)
{
    // Registers and hoards may hold pre-epoch capabilities that never
    // pass through a load again; scan them world-stopped. No
    // generation machinery exists to flip.
    {
        StwWindow stw(self, timing.stw_duration);
        scanRegistersAndHoards(self);
    }

    // One background pass over every page that has ever held
    // capabilities. Stores during the sweep are filtered-clean values,
    // so no page needs a second visit (the same argument that lets
    // Reloaded skip re-sweeps, provided here by the load filter).
    PhaseBracket conc(self, trace::Phase::kConcurrentSweep,
                      &timing.concurrent_duration);
    const std::vector<Addr> pages =
        collectPages([](const vm::Pte &p) { return p.cap_ever; });
    for (Addr va : pages)
        sweep_.visitPage(self, va, /*heal=*/false);
}

} // namespace crev::revoker
