#include "mem/memory_system.h"

#include "base/logging.h"

namespace crev::mem {

MemorySystem::MemorySystem(unsigned num_cores, const CacheConfig &l1,
                           const CacheConfig &llc, const MemLatency &lat)
    : llc_(llc), machine_geometry_(l1.assoc == 4 && llc.assoc == 8),
      lat_(lat), counters_(num_cores)
{
    CREV_ASSERT(num_cores > 0);
    l1_.reserve(num_cores);
    for (unsigned c = 0; c < num_cores; ++c)
        l1_.emplace_back(l1);
}

template <unsigned kL1Ways, unsigned kLlcWays>
[[gnu::always_inline]] inline Cycles
MemorySystem::accessLine(Cache &l1, MemCounters &ctr, Addr line_paddr,
                         bool write)
{
    ++ctr.accesses;

    const CacheResult l1r = l1.accessWays<kL1Ways>(line_paddr, write);
    if (l1r.hit)
        return lat_.l1_hit;
    ++ctr.l1_misses;

    if (l1r.evicted_dirty) {
        const CacheResult wb =
            llc_.accessWays<kLlcWays>(l1r.victim_line, true);
        if (!wb.hit)
            ++ctr.bus_reads;
        if (wb.evicted_dirty)
            ++ctr.bus_writes;
    }

    const CacheResult llcr = llc_.accessWays<kLlcWays>(line_paddr, false);
    if (llcr.hit)
        return lat_.l1_hit + lat_.llc_hit;

    ++ctr.bus_reads;
    if (llcr.evicted_dirty)
        ++ctr.bus_writes;
    return lat_.l1_hit + lat_.llc_hit + lat_.dram;
}

template <unsigned kL1Ways, unsigned kLlcWays>
[[gnu::always_inline]] inline Cycles
MemorySystem::walk(unsigned core, Addr paddr, std::size_t len, bool write)
{
    Cache &l1 = l1_[core];
    MemCounters &ctr = counters_[core];
    Cycles total = 0;
    const Addr first = roundDown(paddr, kLineSize);
    const Addr last = roundDown(paddr + len - 1, kLineSize);
    for (Addr line = first; line <= last; line += kLineSize)
        total += accessLine<kL1Ways, kLlcWays>(l1, ctr, line, write);
    return total;
}

Cycles
MemorySystem::access(unsigned core, Addr paddr, std::size_t len,
                     bool write)
{
    CREV_ASSERT(core < l1_.size());
    CREV_ASSERT(len > 0);
    return machine_geometry_ ? walk<4, 8>(core, paddr, len, write)
                             : walk<0, 0>(core, paddr, len, write);
}

void
MemorySystem::invalidateFrame(Addr pfn)
{
    for (auto &l1 : l1_)
        l1.invalidateFrame(pfn);
    llc_.invalidateFrame(pfn);
}

const MemCounters &
MemorySystem::counters(unsigned core) const
{
    CREV_ASSERT(core < counters_.size());
    return counters_[core];
}

MemCounters
MemorySystem::totalCounters() const
{
    MemCounters total;
    for (const auto &c : counters_) {
        total.accesses += c.accesses;
        total.l1_misses += c.l1_misses;
        total.bus_reads += c.bus_reads;
        total.bus_writes += c.bus_writes;
    }
    return total;
}

} // namespace crev::mem
