/**
 * @file
 * The Machine: one simulated CHERI system — cores, tagged memory,
 * MMU, kernel, revoker, and temporally safe heap — assembled from a
 * MachineConfig. This is the library's primary entry point.
 *
 * Typical use:
 *
 *   core::MachineConfig cfg;
 *   cfg.strategy = core::Strategy::kReloaded;
 *   core::Machine m(cfg);
 *   m.spawnMutator("app", 1u << 3, [](core::Mutator &ctx) {
 *       auto p = ctx.malloc(64);
 *       ctx.store64(p, 0, 42);
 *       ctx.free(p);
 *   });
 *   m.run();
 *   core::RunMetrics metrics = m.metrics();
 */

#ifndef CREV_CORE_MACHINE_H_
#define CREV_CORE_MACHINE_H_

#include <functional>
#include <memory>
#include <string>

#include "alloc/quarantine.h"
#include "alloc/snmalloc_lite.h"
#include "check/race_checker.h"
#include "check/safety_oracle.h"
#include "core/config.h"
#include "core/metrics.h"
#include "kern/kernel.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "revoker/auditor.h"
#include "revoker/bitmap.h"
#include "revoker/recovery.h"
#include "revoker/revoker.h"
#include "revoker/watchdog.h"
#include "sim/fault_injector.h"
#include "sim/scheduler.h"
#include "trace/trace.h"
#include "trace/trace_export.h"
#include "vm/address_space.h"
#include "vm/mmu.h"

namespace crev::core {

class Mutator;

/** One simulated machine/process under a chosen strategy. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Spawn an application thread pinned to @p core_mask running
     * @p body. Must be called before run() (workloads may spawn
     * further threads from inside a running body).
     */
    sim::SimThread *spawnMutator(std::string name,
                                 std::uint32_t core_mask,
                                 std::function<void(Mutator &)> body);

    /** Execute until all mutators finish. */
    void run();

    /** Collect metrics (valid after run()). */
    RunMetrics metrics() const;

    /** Run the invariant audit now; panics on violation. */
    void audit();

    const MachineConfig &config() const { return cfg_; }

    // Component access (tests, advanced use).
    sim::Scheduler &scheduler() { return *sched_; }
    vm::Mmu &mmu() { return *mmu_; }
    vm::AddressSpace &addressSpace() { return *as_; }
    kern::Kernel &kernel() { return *kernel_; }
    alloc::QuarantineShim &heap() { return *shim_; }
    alloc::SnmallocLite &allocator() { return *snm_; }
    revoker::Revoker *revokerOrNull() { return revoker_.get(); }
    mem::PhysMem &physMem() { return pm_; }
    mem::MemorySystem &memorySystem() { return *ms_; }
    revoker::RevocationBitmap *bitmapOrNull() { return bitmap_.get(); }
    sim::FaultInjector *faultInjectorOrNull() { return injector_.get(); }
    revoker::EpochWatchdog *watchdogOrNull() { return watchdog_.get(); }
    trace::Tracer *tracerOrNull() { return tracer_.get(); }
    check::RaceChecker *checkerOrNull() { return checker_.get(); }
    check::SafetyOracle *oracleOrNull() { return oracle_.get(); }
    revoker::RecoveryManager *recoveryOrNull()
    {
        return recovery_.get();
    }
    revoker::Auditor *auditorOrNull() { return auditor_.get(); }

    /** Race-checker report JSON; empty if checking was off. Written
     *  next to the Chrome trace by the bench tooling. */
    std::string checkReportJson() const;

    /** Safety-oracle report JSON; empty if the oracle was off. */
    std::string oracleReportJson() const;

    /** Chrome trace-event JSON of the run; empty if tracing was off.
     *  Byte-identical across same-seed runs. */
    std::string traceJson() const;
    /** Fig. 9-style phase summary text derived from the trace; empty
     *  if tracing was off. */
    std::string traceSummary() const;

  private:
    MachineConfig cfg_;
    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<check::RaceChecker> checker_;
    std::unique_ptr<check::SafetyOracle> oracle_;
    std::unique_ptr<sim::FaultInjector> injector_;
    std::unique_ptr<revoker::RecoveryManager> recovery_;
    mem::PhysMem pm_;
    std::unique_ptr<mem::MemorySystem> ms_;
    std::unique_ptr<sim::Scheduler> sched_;
    std::unique_ptr<vm::AddressSpace> as_;
    std::unique_ptr<vm::Mmu> mmu_;
    std::unique_ptr<kern::Kernel> kernel_;
    std::unique_ptr<revoker::RevocationBitmap> bitmap_;
    std::unique_ptr<revoker::Revoker> revoker_;
    std::unique_ptr<revoker::EpochWatchdog> watchdog_;
    std::unique_ptr<revoker::Auditor> auditor_;
    unsigned respawn_count_ = 0;
    std::unique_ptr<alloc::SnmallocLite> snm_;
    std::unique_ptr<alloc::QuarantineShim> shim_;
    std::vector<std::unique_ptr<Mutator>> mutators_;
};

} // namespace crev::core

#endif // CREV_CORE_MACHINE_H_
