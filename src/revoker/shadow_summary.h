/**
 * @file
 * Two-level host mirror of the painted granule set.
 *
 * The flat host mirror of the revocation bitmap used to be a hash set
 * of granule base addresses, making the probe self-check and every
 * probeQuiet a hash lookup on the sweep's hottest path. This class
 * replaces it with the hierarchy PoisonCap argues for: a dense level-0
 * bitmap (one bit per 16-byte heap granule, in 4096-granule blocks
 * allocated on first paint) under a level-1 "any bit set in this
 * block" bitmap. A membership test is at most two word probes, and
 * one when the granule's block is clean.
 *
 * The level-0 words span the whole heap window in zero pages
 * (base/zero_pages.h), indexed by block, so only the blocks a run
 * paints cost host memory. An ascending list of allocated blocks
 * bounds every whole-structure pass — the self-checks, the chaos
 * site draw, and the copy the revoker snapshots each epoch
 * (DESIGN.md §12.1) — by the blocks in use, not by the window.
 *
 * The structure is pure host state — updates happen at exactly the
 * points the old mirror updated (inside the same NoYield windows), so
 * the simulated shadow bytes and this mirror still move atomically
 * with respect to the scheduler. The Auditor cross-checks the level-1
 * words and running count against the level-0 ground truth.
 */

#ifndef CREV_REVOKER_SHADOW_SUMMARY_H_
#define CREV_REVOKER_SHADOW_SUMMARY_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/types.h"
#include "base/zero_pages.h"
#include "vm/address_space.h"

namespace crev::revoker {

class Auditor;
class RevocationBitmap;
class Revoker;

/**
 * Permission to mutate a ShadowSummary: only the revocation bitmap
 * (paints and clears, inside the NoYield window that keeps the mirror
 * atomic with the simulated shadow bytes), the Revoker base (its
 * per-epoch audit set) and the Auditor (chaos corruption and repair)
 * can make one. Friendship is not inherited, so a strategy cannot.
 */
class SummaryKey
{
    friend class Auditor;
    friend class RevocationBitmap;
    friend class Revoker;
    SummaryKey() = default;
};

/** Two-level bitmap over the heap's granules (host-side only). */
class ShadowSummary
{
  public:
    /** First heap granule index (absolute address >> kGranuleBits). */
    static constexpr Addr kGranuleFloor = vm::kHeapBase >> kGranuleBits;
    /** Number of granules the heap can hold. */
    static constexpr Addr kGranuleCount =
        (vm::kHeapCeiling - vm::kHeapBase) >> kGranuleBits;
    /** Level-0 words per block (512 bytes each). */
    static constexpr std::size_t kWordsPerBlock = 64;
    static constexpr std::size_t kGranulesPerBlock = kWordsPerBlock * 64;
    static constexpr std::size_t kBlocks =
        kGranuleCount / kGranulesPerBlock;

    ShadowSummary();
    ShadowSummary(const ShadowSummary &) = delete;
    ShadowSummary &operator=(const ShadowSummary &) = delete;

    /**
     * Become a copy of @p o. Costs the blocks either side has
     * allocated: the source's are copied, this side's others are
     * cleared. A named call rather than operator=, so it can demand
     * a key.
     */
    void copyFrom(SummaryKey, const ShadowSummary &o);

    /**
     * Whether the granule containing @p addr is painted. Addresses
     * outside the heap (probes carry arbitrary capability bases) are
     * never painted and test false via the level-1 word alone.
     */
    bool test(Addr addr) const
    {
        const Addr g = addr >> kGranuleBits;
        if (g < kGranuleFloor || g - kGranuleFloor >= kGranuleCount)
            return false;
        const Addr i = g - kGranuleFloor;
        const std::size_t b =
            static_cast<std::size_t>(i / kGranulesPerBlock);
        if (((l1_[b >> 6] >> (b & 63)) & 1) == 0)
            return false;
        return ((words_[i / 64] >> (i & 63)) & 1) != 0;
    }

    /**
     * Set or clear the bits for granule *indices* [g_from, g_to) —
     * the index space the bitmap's byte RMW already works in. Must lie
     * within the heap.
     */
    void setGranules(SummaryKey, Addr g_from, Addr g_to, bool value);

    /**
     * Clear every granule overlapping [base, base+len) (dequarantine;
     * ends need not be aligned).
     */
    void clearRange(SummaryKey, Addr base, Addr len);

    /** Total painted granules (maintained incrementally). */
    std::uint64_t count() const { return count_; }

    /**
     * Structural self-check: recompute every block's population and
     * level-1 bit from the level-0 words and compare against the
     * maintained summaries. Returns one string per violation.
     */
    std::vector<std::string> checkConsistent() const;

    /**
     * Visit every set granule's absolute index, ascending (host-side;
     * the safety oracle snapshots revoked generations with this).
     */
    void forEachSet(const std::function<void(Addr)> &fn) const;

    // --- fault-domain support (PR 6) ---

    /**
     * Chaos injection: flip one level-0 bit in an allocated block,
     * deliberately leaving the maintained population/level-1/total
     * summaries stale — pure damage for checkConsistent() to detect
     * and the repair path to heal. @p entropy picks the site
     * deterministically. Returns false (no damage) when no block has
     * ever been allocated; otherwise the flipped granule's absolute
     * index is written to @p granule_out.
     */
    bool corruptBit(SummaryKey, std::uint64_t entropy,
                    Addr *granule_out);

    /**
     * Block indices whose maintained summaries disagree with their
     * level-0 words (empty on a consistent structure).
     */
    std::vector<std::size_t> inconsistentBlocks() const;

    /**
     * Rebuild block @p b's level-0 words from ground truth — @p
     * painted maps an absolute granule index to its true bit (the
     * simulated shadow bytes) — and restore the maintained
     * population, level-1 bit, and running total.
     */
    void rebuildBlock(SummaryKey, std::size_t b,
                      const std::function<bool(Addr)> &painted);

  private:
    /** Whether block @p b has been allocated. */
    bool allocated(std::size_t b) const;
    /** Add block @p b to the allocated list (no-op if present). */
    void allocate(std::size_t b);
    /** Block @p b's level-0 words. */
    std::uint64_t *block(std::size_t b)
    {
        return &words_[b * kWordsPerBlock];
    }
    const std::uint64_t *block(std::size_t b) const
    {
        return &words_[b * kWordsPerBlock];
    }

    /** Level-1: bit b set iff block b has any level-0 bit set. */
    std::array<std::uint64_t, kBlocks / 64> l1_{};
    /** Per-block set-bit population (drives level-1 clearing). */
    ZeroPages<std::uint32_t> block_counts_;
    /** Level-0 words, block after block over the heap window. */
    ZeroPages<std::uint64_t> words_;
    /** Blocks ever painted or rebuilt, ascending; every other block's
     *  words, population and level-1 bit are zero. */
    std::vector<std::size_t> allocated_;
    std::uint64_t count_ = 0;
};

} // namespace crev::revoker

#endif // CREV_REVOKER_SHADOW_SUMMARY_H_
