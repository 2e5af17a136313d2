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

bool
SweepEngine::publishPage(sim::SimThread &t, vm::Pte &p, Addr page_va,
                         const PublishOptions &o, vm::PteContext ctx)
{
    mmu_.addressSpace().notePtePublish(t, page_va, ctx);

    // Clean-page detection must re-verify against live tags: a
    // capability stored during a lockless sweep makes the caller's
    // verdict stale (§4.2/§7.4). pageHasTags is uncharged host work.
    const bool clean = o.clean && !mmu_.pageHasTags(page_va);
    if (clean && o.clean_page_detection)
        p.cap_ever = false;
    if (o.set_generation) {
        if (clean && o.always_trap_clean) {
            // §7.6: leave the page in the always-trap disposition; its
            // generation need not be maintained while it stays clean.
            p.cap_load_trap = true;
        } else {
            p.clg = o.gen;
            p.cap_load_trap = false;
        }
    }
    p.cap_dirty = false;
    if (o.charge_and_shootdown) {
        t.accrue(mmu_.costs().pte_update);
        mmu_.shootdownPage(t, page_va);
    }
    return clean;
}

bool
SweepEngine::isRevoked(sim::SimThread &t, const cap::Capability &c)
{
    if (!c.tag)
        return false;
    return bitmap_.probe(t, c.base);
}

} // namespace crev::revoker
