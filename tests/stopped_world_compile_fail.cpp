/**
 * @file
 * A translation unit that must NOT compile. The load-generation flip
 * happens only while the world is stopped (paper §4.1), so
 * vm::Mmu::flipAllCoreGens demands a sim::StoppedWorld, and the
 * scoped StoppedWorld is the only way to stop the world: its
 * constructor stops it and its destructor resumes it.
 * Scheduler::stopTheWorld is private to it. The
 * stopped_world_compile_fail ctest passes only when the compiler
 * rejects this unit because that entry point is private.
 */

#include "sim/scheduler.h"

namespace crev {

Cycles
stopWithoutAProof(sim::Scheduler &s, sim::SimThread &t)
{
    return s.stopTheWorld(t);
}

} // namespace crev
