#include "revoker/sweep.h"

#include <bit>
#include <cstring>

#include "base/logging.h"
#include "cap/compression.h"
#include "vm/address_space.h"

namespace crev::revoker {

bool
SweepEngine::sweepPage(sim::SimThread &t, Addr page_va)
{
    CREV_ASSERT(pageOffset(page_va) == 0);
    ++stats_.pages_swept;

    // Resolve the page's frame once instead of re-dispatching through
    // the MMU per line/granule. The pointer stays valid across the
    // yields inside probe(): quiesce blocks munmap while the epoch
    // counter is odd, and Frame storage is never deallocated (freed
    // frames stay in the table for reuse).
    const vm::Pte *pte = mmu_.addressSpace().findPte(page_va);
    CREV_ASSERT(pte != nullptr && pte->valid);
    const mem::Frame &f = mmu_.physMem().frame(pte->pfn);
    const Addr paddr_base = pte->pfn << kPageBits;

    bool clean = true;

    for (Addr line = page_va; line < page_va + kPageSize;
         line += kLineSize) {
        mmu_.chargeReadPaddr(t, paddr_base | (line - page_va),
                             kLineSize);
        ++stats_.lines_read;
        const std::size_t li =
            static_cast<std::size_t>(line - page_va) >> kLineBits;

        // The probe/clear of a tagged granule can yield and let
        // mutators flip tags mid-line, so decisions must come from
        // LIVE state: re-read the nibble after every processed granule
        // and only ever advance the cursor (a tag set behind it is one
        // the granule-order scan has already walked past).
        for (unsigned pos = 0; pos < mem::kGranulesPerLine;) {
            // Live re-read (chargeReadPaddr above paid for the line).
            const unsigned live = f.lineNibble(li) >> pos;
            if (live == 0)
                break; // rest of the line is untagged right now
            const unsigned gi =
                pos + static_cast<unsigned>(std::countr_zero(live));
            pos = gi + 1;
            const std::size_t gidx =
                li * mem::kGranulesPerLine + gi;
            clean = false;
            ++stats_.caps_seen;
            // Live raw bits (on-chip after the line read), read before
            // the decode charge can yield; only the decoded base feeds
            // the probe.
            const std::uint8_t *raw =
                f.bytes.data() + gidx * kGranuleSize;
            cap::CapBits bits;
            std::memcpy(&bits.lo, raw, 8);
            std::memcpy(&bits.hi, raw + 8, 8);
            const Addr cap_base = cap::decode(bits, true).base;
            t.accrue(2); // decode / base extraction
            if (bitmap_.probe(t, cap_base)) {
                mmu_.kernelClearTag(t, line + Addr{gi} * kGranuleSize);
                ++stats_.caps_revoked;
            }
        }
    }
    return clean;
}

void
SweepEngine::scanRegisters(sim::SimThread &t,
                           std::vector<cap::Capability> &regs)
{
    for (auto &r : regs) {
        t.accrue(mmu_.costs().reg_scan);
        ++stats_.regs_scanned;
        if (!r.tag)
            continue;
        if (bitmap_.probe(t, r.base)) {
            r.tag = false;
            ++stats_.regs_revoked;
        }
    }
}

void
SweepEngine::publishPage(sim::SimThread &t, vm::Pte &p, Addr page_va,
                         bool clean, std::optional<unsigned> heal_gen,
                         vm::PteContext ctx)
{
    mmu_.addressSpace().notePtePublish(t, page_va, ctx);

    // Clean-page detection must re-verify against live tags: a
    // capability stored during a lockless sweep makes the caller's
    // verdict stale (§4.2/§7.4). The re-check is uncharged: it stands
    // in for the PTE's hardware-kept capability-dirty state.
    clean = clean && !mmu_.pageHasTags(vm::CleanCheckKey{}, page_va);
    if (clean && policy_.clean_page_detection)
        p.cap_ever = false;
    if (heal_gen) {
        if (clean && policy_.always_trap_clean) {
            // §7.6: leave the page in the always-trap disposition; its
            // generation need not be maintained while it stays clean.
            p.cap_load_trap = true;
        } else {
            p.clg = *heal_gen;
            p.cap_load_trap = false;
        }
    }
    p.cap_dirty = false;
    if (heal_gen) {
        t.accrue(mmu_.costs().pte_update);
        mmu_.shootdownPage(t, page_va);
    }
}

bool
SweepEngine::visitPage(sim::SimThread &t, Addr va, bool heal)
{
    vm::AddressSpace &as = mmu_.addressSpace();
    sim::SimMutex &pmap = as.pmapLock();
    // Read before the sweep: an epoch that opens mid-sweep must still
    // find this page stale.
    const unsigned gen = mmu_.currentGen();
    auto wanted = [&](const vm::Pte &p) {
        return p.valid && (!heal || p.clg != gen || p.cap_load_trap);
    };

    // First acquisition: skip a page that is unmapped or, when
    // healing, already brought up to date by another visit.
    pmap.lock(t);
    vm::Pte *p = as.findPte(va);
    const bool mapped = p != nullptr && p->valid;
    const bool visit = mapped && wanted(*p);
    pmap.unlock(t);
    if (!visit)
        return mapped;

    // Sweep without the lock (a bitmap probe can itself fault).
    bool clean = true;
    if (p->cap_ever)
        clean = sweepPage(t, va);

    // Second acquisition: publish idempotently.
    pmap.lock(t);
    if (wanted(*p))
        publishPage(t, *p, va, clean,
                    heal ? std::optional<unsigned>(gen) : std::nullopt,
                    vm::PteContext::kLocked);
    pmap.unlock(t);
    return true;
}

bool
SweepEngine::isRevoked(sim::SimThread &t, const cap::Capability &c)
{
    if (!c.tag)
        return false;
    return bitmap_.probe(t, c.base);
}

} // namespace crev::revoker
