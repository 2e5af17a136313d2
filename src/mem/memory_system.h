/**
 * @file
 * The machine's memory hierarchy timing model.
 *
 * Per-core private L1 caches in front of a shared last-level cache in
 * front of DRAM. "Bus transactions" are counted at the LLC<->DRAM
 * boundary and attributed to the requesting core — the analogue of the
 * paper's system-mode pmcstat bus-access counters used as a proxy for
 * DRAM traffic (figs. 4 and 6). Every access walks each line it touches
 * through the requesting core's L1 and then the LLC; a dirty L1 victim
 * is written into the LLC before the missing line is filled. The walk is
 * compiled for the machine's 4-way L1 and 8-way LLC, and a generic twin
 * serves any other geometry (DESIGN.md §9.1).
 */

#ifndef CREV_MEM_MEMORY_SYSTEM_H_
#define CREV_MEM_MEMORY_SYSTEM_H_

#include <cstdint>
#include <vector>

#include "base/types.h"
#include "mem/cache.h"

namespace crev::mem {

/** Latency parameters (cycles). */
struct MemLatency
{
    Cycles l1_hit = 4;
    Cycles llc_hit = 14;
    Cycles dram = 100;
};

/** Per-core traffic counters. */
struct MemCounters
{
    std::uint64_t accesses = 0;  //!< CPU-side accesses
    std::uint64_t l1_misses = 0;
    std::uint64_t bus_reads = 0;  //!< LLC miss fills from DRAM
    std::uint64_t bus_writes = 0; //!< LLC dirty writebacks to DRAM

    std::uint64_t
    busTransactions() const
    {
        return bus_reads + bus_writes;
    }
};

/**
 * Timing and traffic model for all simulated memory operations. Data
 * movement is handled separately by PhysMem; this class only accounts
 * for latency and traffic given the physical addresses touched.
 */
class MemorySystem
{
  public:
    MemorySystem(unsigned num_cores, const CacheConfig &l1,
                 const CacheConfig &llc, const MemLatency &lat);

    /**
     * Perform an access of @p len bytes at physical address @p paddr
     * from @p core; returns the latency in cycles. Accesses spanning
     * line boundaries touch each line once.
     */
    Cycles access(unsigned core, Addr paddr, std::size_t len, bool write);

    /** Invalidate all cached copies of a frame (on frame reuse). */
    void invalidateFrame(Addr pfn);

    const MemCounters &counters(unsigned core) const;
    /** Aggregate over all cores. */
    MemCounters totalCounters() const;

    unsigned numCores() const { return static_cast<unsigned>(l1_.size()); }

  private:
    /**
     * access()'s line loop for an L1 of @p kL1Ways and an LLC of
     * @p kLlcWays ways, or of any geometry when both are 0.
     */
    template <unsigned kL1Ways, unsigned kLlcWays>
    Cycles walk(unsigned core, Addr paddr, std::size_t len, bool write);

    /** One line through the core's L1 and the shared LLC. */
    template <unsigned kL1Ways, unsigned kLlcWays>
    Cycles accessLine(Cache &l1, MemCounters &ctr, Addr line_paddr,
                      bool write);

    std::vector<Cache> l1_;
    Cache llc_;
    /** The geometry is the machine's: 4-way L1s and an 8-way LLC. */
    bool machine_geometry_;
    MemLatency lat_;
    std::vector<MemCounters> counters_;
};

} // namespace crev::mem

#endif // CREV_MEM_MEMORY_SYSTEM_H_
