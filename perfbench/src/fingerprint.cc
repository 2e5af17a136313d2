#include "fingerprint.h"

#include <cstdint>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::string
fingerprint(const crev::core::RunMetrics &m)
{
    std::ostringstream os;
    os << "wall=" << m.wall_cycles << " cpu=" << m.cpu_cycles << "\n";
    for (const auto &[name, busy] : m.thread_busy)
        os << "busy[" << name << "]=" << busy << "\n";
    for (const auto &mc : m.core_mem)
        os << "core acc=" << mc.accesses << " l1m=" << mc.l1_misses
           << " br=" << mc.bus_reads << " bw=" << mc.bus_writes << "\n";
    os << "bus=" << m.bus_transactions_total
       << " rss=" << m.peak_rss_pages << "\n";
    for (const auto &ep : m.epochs)
        os << "epoch stw=" << ep.stw_duration
           << " conc=" << ep.concurrent_duration
           << " ft=" << ep.fault_time_total << " fc=" << ep.fault_count
           << " pg=" << ep.pages_swept << " rv=" << ep.caps_revoked
           << " deg=" << ep.recovery.degraded << "\n";
    os << "sweep pg=" << m.sweep.pages_swept
       << " ln=" << m.sweep.lines_read << " seen=" << m.sweep.caps_seen
       << " rv=" << m.sweep.caps_revoked
       << " rs=" << m.sweep.regs_scanned
       << " rr=" << m.sweep.regs_revoked << "\n";
    os << "quar trig=" << m.quarantine.revocations_triggered
       << " freed=" << m.quarantine.sum_freed_bytes
       << " blk=" << m.quarantine.blocked_ops
       << " blkcyc=" << m.quarantine.blocked_cycles
       << " max=" << m.quarantine.max_quarantine_bytes << "\n";
    os << "alloc a=" << m.allocator.allocs << " f=" << m.allocator.frees
       << " ba=" << m.allocator.bytes_allocated_total
       << " bf=" << m.allocator.bytes_freed_total << "\n";
    os << "mmu df=" << m.mmu.demand_faults
       << " lbf=" << m.mmu.load_barrier_faults
       << " shoot=" << m.mmu.tlb_shootdowns << "\n";

    // FNV-1a, 64-bit.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char ch : os.str()) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
