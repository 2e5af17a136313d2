/**
 * @file
 * Sparse tagged physical memory.
 *
 * Memory is organised as 4 KiB frames; each frame carries 256 tag bits,
 * one per 16-byte capability granule, mirroring Morello's tagged DRAM
 * (paper §2.1: "machinery is required to associate tags with memory
 * words"). Frames are allocated/freed by the simulated VM layer;
 * occupancy high-water marks feed the peak-RSS experiment (fig. 3).
 *
 * Tags are stored as packed 64-bit words (TagWords) so the sweep reads
 * a whole cache line's four granule tags with one shift, a frame's
 * "any tag?" test ORs the frame's four words, and a data write clears
 * the tags it overlaps with one mask per word (DESIGN.md §9.1).
 */

#ifndef CREV_MEM_PHYS_MEM_H_
#define CREV_MEM_PHYS_MEM_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "base/logging.h"
#include "base/simd.h"
#include "base/types.h"
#include "cap/compression.h"

namespace crev::mem {

/** Granules per cache line (the sweep's nibble width). */
constexpr std::size_t kGranulesPerLine = kLineSize / kGranuleSize;

/** Packed per-granule tag bits of one frame. */
class TagWords
{
  public:
    static constexpr std::size_t kWords = kGranulesPerPage / 64;

    bool
    test(std::size_t g) const
    {
        return (w_[g >> 6] >> (g & 63)) & 1u;
    }

    void
    set(std::size_t g)
    {
        w_[g >> 6] |= std::uint64_t{1} << (g & 63);
    }

    void
    reset(std::size_t g)
    {
        w_[g >> 6] &= ~(std::uint64_t{1} << (g & 63));
    }

    /** Clear granules @p first through @p last (inclusive) with one
     *  mask per tag word they touch. */
    void
    resetRange(std::size_t first, std::size_t last)
    {
        const std::size_t fw = first >> 6;
        const std::size_t lw = last >> 6;
        const std::uint64_t from = ~std::uint64_t{0} << (first & 63);
        const std::uint64_t to = ~std::uint64_t{0} >> (63 - (last & 63));
        if (fw == lw) {
            w_[fw] &= ~(from & to);
            return;
        }
        w_[fw] &= ~from;
        for (std::size_t w = fw + 1; w < lw; ++w)
            w_[w] = 0;
        w_[lw] &= ~to;
    }

    bool any() const { return simd::anySet(w_.data(), kWords); }

    /** The 4 tag bits of intra-page cache line @p line. */
    unsigned
    lineNibble(std::size_t line) const
    {
        return static_cast<unsigned>(
                   w_[line >> 4] >> ((line & 15) * kGranulesPerLine)) &
               0xFu;
    }

  private:
    std::array<std::uint64_t, kWords> w_{};
};

/** One physical frame: data bytes plus per-granule capability tags. */
class Frame
{
  public:
    std::array<std::uint8_t, kPageSize> bytes{};

    /** Tag bit of granule @p g. */
    bool testTag(std::size_t g) const { return tags_.test(g); }

    /** Set/clear granule @p g's tag. */
    void
    setTag(std::size_t g, bool v)
    {
        if (v)
            tags_.set(g);
        else
            tags_.reset(g);
    }

    void clearTag(std::size_t g) { tags_.reset(g); }

    /** Clear the tags of granules @p first through @p last. */
    void
    clearTags(std::size_t first, std::size_t last)
    {
        tags_.resetRange(first, last);
    }

    /** Whether any granule of the frame is tagged. */
    bool anyTags() const { return tags_.any(); }

    /** Tag nibble of intra-page cache line @p line. */
    unsigned lineNibble(std::size_t line) const
    {
        return tags_.lineNibble(line);
    }

  private:
    TagWords tags_;
};

/**
 * The machine's physical memory. Frame numbers (pfns) are dense
 * indices into a frame table; a free list recycles released frames.
 * Frame storage is never deallocated (freed frames stay in the table
 * for reuse), so a Frame reference never dangles. Lookups perform no
 * mutation, and the accessors are inline so the MMU's hot cap/data
 * paths pay no function-call or hash-lookup cost.
 */
class PhysMem
{
  public:
    PhysMem() = default;

    /** Allocate a zeroed frame; returns its pfn. */
    Addr allocFrame();

    /** Release a frame back to the free pool. */
    void freeFrame(Addr pfn);

    /** Frames currently allocated. */
    std::size_t framesInUse() const { return in_use_; }

    /** High-water mark of allocated frames (peak RSS proxy). */
    std::size_t peakFrames() const { return peak_; }

    /** Direct access to a frame (must have been allocated). */
    Frame &
    frame(Addr pfn)
    {
        CREV_ASSERT(pfn != 0 && pfn < frames_.size());
        return *frames_[pfn];
    }

    const Frame &
    frame(Addr pfn) const
    {
        CREV_ASSERT(pfn != 0 && pfn < frames_.size());
        return *frames_[pfn];
    }

    /** Read @p len bytes at physical address @p paddr (intra-page). */
    void
    read(Addr paddr, void *out, std::size_t len) const
    {
        CREV_ASSERT(pageOffset(paddr) + len <= kPageSize);
        const Frame &f = frame(pageOf(paddr));
        std::memcpy(out, f.bytes.data() + pageOffset(paddr), len);
    }

    /**
     * Write @p len bytes at @p paddr (intra-page). Clears the tags of
     * every granule the write overlaps: ordinary data stores always
     * invalidate capabilities (CHERI tag semantics).
     */
    void
    write(Addr paddr, const void *data, std::size_t len)
    {
        CREV_ASSERT(pageOffset(paddr) + len <= kPageSize);
        Frame &f = frame(pageOf(paddr));
        std::memcpy(f.bytes.data() + pageOffset(paddr), data, len);
        f.clearTags(granuleIndex(paddr), granuleIndex(paddr + len - 1));
    }

    /** Tag bit of the granule containing @p paddr. */
    bool
    tagAt(Addr paddr) const
    {
        return frame(pageOf(paddr)).testTag(granuleIndex(paddr));
    }

    /** Clear the tag of the granule containing @p paddr. */
    void
    clearTag(Addr paddr)
    {
        frame(pageOf(paddr)).clearTag(granuleIndex(paddr));
    }

    /** Whether any granule of frame @p pfn is tagged. */
    bool frameHasTags(Addr pfn) const { return frame(pfn).anyTags(); }

    /** Store a capability (16-byte aligned @p paddr) with its tag. */
    void
    storeCap(Addr paddr, const cap::CapBits &bits, bool tag)
    {
        CREV_ASSERT(pageOffset(paddr) % kGranuleSize == 0);
        Frame &f = frame(pageOf(paddr));
        std::memcpy(f.bytes.data() + pageOffset(paddr), &bits.lo, 8);
        std::memcpy(f.bytes.data() + pageOffset(paddr) + 8, &bits.hi, 8);
        f.setTag(granuleIndex(paddr), tag);
    }

    /** Load a capability; returns the tag bit. */
    bool
    loadCap(Addr paddr, cap::CapBits &bits) const
    {
        CREV_ASSERT(pageOffset(paddr) % kGranuleSize == 0);
        const Frame &f = frame(pageOf(paddr));
        std::memcpy(&bits.lo, f.bytes.data() + pageOffset(paddr), 8);
        std::memcpy(&bits.hi, f.bytes.data() + pageOffset(paddr) + 8, 8);
        return f.testTag(granuleIndex(paddr));
    }

    /** Granule index of @p paddr within its page. */
    static std::size_t
    granuleIndex(Addr paddr)
    {
        return static_cast<std::size_t>(pageOffset(paddr) >>
                                        kGranuleBits);
    }

  private:
    /** Indexed by pfn; pfn 0 is reserved as "invalid" (null). */
    std::vector<std::unique_ptr<Frame>> frames_ =
        std::vector<std::unique_ptr<Frame>>(1);
    std::vector<Addr> free_list_;
    std::size_t in_use_ = 0;
    std::size_t peak_ = 0;
};

} // namespace crev::mem

#endif // CREV_MEM_PHYS_MEM_H_
