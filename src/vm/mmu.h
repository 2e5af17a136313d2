/**
 * @file
 * The memory management unit: translation, permission checks, the
 * capability load barrier, and capability-dirty store tracking.
 *
 * Every simulated memory operation flows through here. The barrier
 * semantics follow paper §4.1: each core carries a capability load
 * generation register; a *tagged* capability load from a page whose
 * (TLB-cached) PTE generation mismatches the core's traps into the
 * registered handler — Reloaded's self-healing fault path — and then
 * retries. Capability stores set the PTE's cap-dirty and cap-ever
 * bits, hardware-DBM style (§4.2).
 */

#ifndef CREV_VM_MMU_H_
#define CREV_VM_MMU_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.h"
#include "cap/capability.h"
#include "mem/memory_system.h"
#include "mem/phys_mem.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"
#include "sim/scheduler.h"
#include "vm/address_space.h"
#include "vm/tlb.h"

namespace crev::revoker {
class Auditor;
class SweepEngine;
} // namespace crev::revoker

namespace crev::vm {

/**
 * Permission to read simulated memory without charging simulated
 * cycles. Only off-clock observer code may do that, so only
 * revoker::Auditor can make a key: a simulation path that reached for
 * an uncharged read would not compile.
 */
class ObserverKey
{
    friend class revoker::Auditor;
    ObserverKey() = default;
};

/**
 * Permission to ask, for free, whether a page holds any tag: the
 * stand-in for the PTE's hardware-kept capability-dirty state. It
 * steers simulated work (clean-page detection), so only
 * revoker::SweepEngine, which publishes page dispositions, can make
 * one.
 */
class CleanCheckKey
{
    friend class revoker::SweepEngine;
    CleanCheckKey() = default;
};

/** MMU event counters. */
struct MmuStats
{
    std::uint64_t demand_faults = 0;
    std::uint64_t load_barrier_faults = 0;
    std::uint64_t tlb_shootdowns = 0;
    /** Ack-based shootdown rounds beyond the first (lost/late IPIs). */
    std::uint64_t shootdown_resends = 0;
};

/** The machine's MMU (one per simulated process/machine). */
class Mmu
{
  public:
    /**
     * Handler invoked on a capability load-generation fault. It runs
     * on the faulting thread (costs accrue there), must bring the
     * page's PTE up to the current generation, and is responsible for
     * TLB shootdowns.
     */
    using LoadFaultHandler =
        std::function<void(sim::SimThread &, Addr va)>;

    /**
     * Inline load filter (CHERIoT-style, paper §6.3): invoked for
     * every *tagged* capability load with the decoded value; returning
     * true strips the tag from the value entering the register file
     * (the in-memory copy is untouched — not self-healing).
     */
    using LoadFilter =
        std::function<bool(sim::SimThread &, const cap::Capability &)>;

    Mmu(mem::PhysMem &pm, mem::MemorySystem &ms, AddressSpace &as,
        const sim::CostModel &cm);

    // --- user-mode access paths (barriered) ---

    /** Load @p len bytes at @p va (may span pages). A null @p out
     *  translates and charges the load but copies nothing. */
    void loadData(sim::SimThread &t, Addr va, void *out,
                  std::size_t len);
    /** Store @p len bytes at @p va; clears overlapped tags. */
    void storeData(sim::SimThread &t, Addr va, const void *in,
                   std::size_t len);
    std::uint64_t loadU64(sim::SimThread &t, Addr va);
    void storeU64(sim::SimThread &t, Addr va, std::uint64_t v);

    /** Tagged capability load; subject to the load barrier. */
    cap::Capability loadCap(sim::SimThread &t, Addr va);
    /** Capability store; sets cap-dirty/cap-ever when tagged. */
    void storeCap(sim::SimThread &t, Addr va, const cap::Capability &c);

    // --- kernel/revoker access paths (no barrier, no dirtying) ---

    /** Load a capability bypassing the load barrier (sweeper). */
    cap::Capability kernelLoadCap(sim::SimThread &t, Addr va);
    /** Clear a granule's tag without touching dirty tracking. */
    void kernelClearTag(sim::SimThread &t, Addr va);
    /** Whether any granule of the page containing @p va is tagged
     *  right now (clean-page detection re-check; no cost). */
    bool pageHasTags(CleanCheckKey, Addr va);
    /**
     * Charge a read of @p len bytes at physical address @p paddr (the
     * sweep's line fetches; it resolves its page's frame once).
     */
    void
    chargeReadPaddr(sim::SimThread &t, Addr paddr, std::size_t len)
    {
        chargeAccess(t, t.core(), paddr, len, false);
    }
    /**
     * Uncharged single-byte peek of simulated memory (via the page
     * tables, no TLB, no cost): the Auditor's summary-repair path
     * reads ground-truth shadow bytes with it. Returns false when the
     * page is not resident.
     */
    bool peekByte(ObserverKey, Addr va, std::uint8_t *out);

    // --- load-generation plumbing ---

    void setLoadFaultHandler(LoadFaultHandler h) { handler_ = std::move(h); }
    void setLoadFilter(LoadFilter f) { filter_ = std::move(f); }
    /** Current per-core generation bit. */
    unsigned coreGen(unsigned core) const;
    /**
     * Flip every core's generation register. Only while the world is
     * stopped (§4.1): the flip takes effect on every core at once.
     */
    void flipAllCoreGens(sim::SimThread &t, const sim::StoppedWorld &);
    /** The generation new PTEs should carry to be "current". */
    unsigned currentGen() const { return gen_; }

    // --- TLB management ---

    Tlb &tlb(unsigned core);
    /** Invalidate one page in all TLBs, charging the caller. */
    void shootdownPage(sim::SimThread &t, Addr va);
    /** Drop freed frames from all caches (frame reuse hygiene). */
    void purgeFreedFrames();

    const MmuStats &stats() const { return stats_; }
    AddressSpace &addressSpace() { return as_; }
    mem::PhysMem &physMem() { return pm_; }
    mem::MemorySystem &memorySystem() { return ms_; }
    const sim::CostModel &costs() const { return cm_; }

  private:
    /**
     * Translate one intra-page access, resolving demand-zero faults
     * and throwing MemoryFault on violations. Returns the physical
     * address; @p pte_out receives the TLB-resident PTE snapshot.
     */
    Addr translate(sim::SimThread &t, Addr va, bool is_store,
                   bool is_cap_store, Pte *pte_out = nullptr);

    /** Per-page segment iteration helper. */
    template <typename Fn>
    void forSegments(Addr va, std::size_t len, Fn fn);

    /** Charge one memory access, applying any injected latency
     *  spike (a pure function of virtual time). */
    void
    chargeAccess(sim::SimThread &t, unsigned core, Addr paddr,
                 std::size_t len, bool write)
    {
        Cycles c = ms_.access(core, paddr, len, write);
        if (const sim::FaultInjector *fi = t.scheduler().injector())
            c += fi->memAccessPenalty(t.now());
        t.accrue(c);
    }

    mem::PhysMem &pm_;
    mem::MemorySystem &ms_;
    AddressSpace &as_;
    const sim::CostModel &cm_;
    std::vector<Tlb> tlbs_;
    std::vector<unsigned> core_gen_;
    unsigned gen_ = 0;
    LoadFaultHandler handler_;
    LoadFilter filter_;
    MmuStats stats_;
};

} // namespace crev::vm

#endif // CREV_VM_MMU_H_
