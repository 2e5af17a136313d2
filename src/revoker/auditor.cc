#include "revoker/auditor.h"

#include <cstdio>

#include "base/logging.h"
#include "cap/compression.h"
#include "sim/fault_injector.h"
#include "vm/address_space.h"

namespace crev::revoker {

void
Auditor::checkCap(const cap::Capability &c, const std::string &where,
                  std::vector<std::string> &out)
{
    if (!c.tag)
        return;
    if (revoker_.auditSet().test(c.base)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "stale capability in %s: base=0x%llx "
                      "(quarantined before the last completed epoch)",
                      where.c_str(),
                      static_cast<unsigned long long>(c.base));
        out.push_back(buf);
    }
}

std::vector<std::string>
Auditor::findViolations()
{
    ++audits_;
    std::vector<std::string> out;
    mem::PhysMem &pm = mmu_.physMem();

    // 0. The two-level painted-set summaries. Every membership test
    // (the sweep probe's self-check included) reads the level-1 word
    // first and the running count feeds the metrics, so their
    // agreement with the level-0 ground truth is an audited
    // invariant, not an assumption.
    for (const std::string &v :
         revoker_.bitmap().painted().checkConsistent())
        out.push_back("painted-set summary: " + v);
    for (const std::string &v : revoker_.auditSet().checkConsistent())
        out.push_back("audit-set summary: " + v);

    // 1. All of user memory.
    mmu_.addressSpace().forEachResidentPage([&](Addr va, vm::Pte &p) {
        const mem::Frame &f = pm.frame(p.pfn);
        if (!f.anyTags())
            return;
        for (std::size_t g = 0; g < kGranulesPerPage; ++g) {
            if (!f.testTag(g))
                continue;
            cap::CapBits bits;
            const Addr paddr =
                (p.pfn << kPageBits) + g * kGranuleSize;
            pm.loadCap(paddr, bits);
            char where[96];
            std::snprintf(where, sizeof(where),
                          "memory va=0x%llx (pte: ever=%d dirty=%d "
                          "clg=%u/%u trap=%d)",
                          static_cast<unsigned long long>(
                              va + g * kGranuleSize),
                          p.cap_ever, p.cap_dirty, p.clg,
                          mmu_.currentGen(), p.cap_load_trap);
            checkCap(cap::decode(bits, true), where, out);
        }
    });

    // 2. Every thread's register file.
    for (const auto &tp : sched_.threads())
        for (const auto &r : tp->registerFile())
            checkCap(r, "registers of " + tp->name(), out);

    // 3. Kernel hoards.
    for (const auto &c : kernel_.hoard().slots())
        checkCap(c, "kernel hoard", out);

    return out;
}

bool
Auditor::groundTruthPainted(Addr granule)
{
    // The simulated shadow byte holding this granule's bit. A
    // non-resident shadow page means the kernel never painted anything
    // there: the true bit is clear.
    std::uint8_t byte = 0;
    if (!mmu_.peekByte(vm::ObserverKey{}, vm::kShadowBase + (granule >> 3),
                       &byte))
        return false;
    return ((byte >> (granule & 7)) & 1) != 0;
}

void
Auditor::repairSummaries(sim::SimThread *self)
{
    ShadowSummary &painted =
        revoker_.bitmap().mutableSummaryForRepair();
    std::vector<std::size_t> bad = painted.inconsistentBlocks();
    if (bad.empty())
        return;

    // One ticket covers the whole repair episode; each round (however
    // many blocks it rebuilds) is one attempt. The rebuild source is
    // the simulated shadow bytes — the ground truth the mirror
    // shadows — so a single round normally suffices; the bounded loop
    // guards the guard. Without a recovery manager (or thread) the
    // repair runs unticketed.
    RecoveryManager *recovery = sched_.recovery();
    RecoveryManager::Ticket tk;
    const bool managed = recovery != nullptr && self != nullptr;
    if (managed)
        tk = recovery->open(*self, RecoveryProtocol::kSummaryRepair);
    bool repaired = false;
    for (;;) {
        if (managed && !recovery->attempt(*self, tk))
            break;
        for (std::size_t b : bad)
            painted.rebuildBlock(SummaryKey{}, b, [this](Addr g) {
                return groundTruthPainted(g);
            });
        ++summary_repairs_;
        bad = painted.inconsistentBlocks();
        if (bad.empty()) {
            repaired = true;
            break;
        }
        if (!managed)
            break;
    }
    if (managed)
        recovery->close(*self, tk,
                        repaired ? RecoveryOutcome::kSucceeded
                                 : recovery->failureOutcome(self->now(),
                                                            tk));
    if (!repaired)
        panic("painted-set summary corruption unrepairable "
              "(%zu blocks still inconsistent)",
              bad.size());
}

void
Auditor::check(sim::SimThread *self)
{
    // With a fault injector attached, the corrupted summary-word
    // domain is armed at audit entry.
    sim::FaultInjector *injector = sched_.injector();
    if (self != nullptr && injector != nullptr) {
        std::uint64_t entropy = 0;
        if (injector->corruptSummaryWord(*self, &entropy)) {
            Addr granule = 0;
            revoker_.bitmap().mutableSummaryForRepair().corruptBit(
                SummaryKey{}, entropy, &granule);
        }
    }
    repairSummaries(self);
    const auto violations = findViolations();
    if (!violations.empty()) {
        for (const auto &v : violations)
            warn("audit: %s", v.c_str());
        panic("revocation invariant violated (%zu stale capabilities)",
              violations.size());
    }
}

} // namespace crev::revoker
