/**
 * @file
 * A set-associative, write-back, write-allocate cache timing model.
 *
 * The cache tracks only line addresses and dirtiness; actual data lives
 * in PhysMem. That is all the paper's bus-traffic experiments need: a
 * bus transaction happens when a line is fetched from, or written back
 * to, the level below. Replacement is true LRU within a set.
 *
 * Each way is one 32-bit entry, and each set keeps its entries in
 * recency order, so a set of the 1 MiB/8-way LLC model is 32 bytes and
 * the whole model 64 KiB. A hit rotates its way to the front; a miss
 * drops the last way, shifts the set down one place and inserts the new
 * line at the front (DESIGN.md §9.1).
 */

#ifndef CREV_MEM_CACHE_H_
#define CREV_MEM_CACHE_H_

#include <cstdint>
#include <vector>

#include "base/logging.h"
#include "base/types.h"

namespace crev::mem {

/** Cache geometry. */
struct CacheConfig
{
    std::size_t size_bytes = 32 * 1024;
    unsigned assoc = 4;
};

/** Outcome of a cache access. */
struct CacheResult
{
    bool hit = false;
    bool evicted_dirty = false; //!< a dirty victim was written back
    Addr victim_line = 0;       //!< line address of the writeback
};

/** One level of cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Access the line containing @p addr; allocates on miss, evicting
     * the set's least recently used line. Dispatches on the way count
     * to accessWays<4>, accessWays<8> or the generic accessWays<0>.
     * @param write marks the line dirty.
     */
    CacheResult
    access(Addr addr, bool write)
    {
        switch (assoc_) {
        case 4:
            return accessWays<4>(addr, write);
        case 8:
            return accessWays<8>(addr, write);
        default:
            return accessWays<0>(addr, write);
        }
    }

    /**
     * access() for a cache of @p kWays ways, or of any associativity
     * when @p kWays is 0. A fixed way count unrolls the scan and the
     * recency shifts; MemorySystem's line walk inlines this directly
     * once it knows the geometry (DESIGN.md §9.1).
     */
    template <unsigned kWays>
    [[gnu::always_inline]] CacheResult
    accessWays(Addr addr, bool write)
    {
        CREV_ASSERT(kWays == 0 || kWays == assoc_);
        const unsigned ways = kWays ? kWays : assoc_;
        const Addr line_addr = addr >> kLineBits;
        const Addr key = keyOf(line_addr);
        std::uint32_t *set = &entries_[setStart(line_addr, ways)];

        CacheResult res;
#pragma GCC unroll 8
        for (unsigned w = 0; w < ways; ++w) {
            const std::uint32_t e = set[w];
            if ((e & ~kDirty) == key) {
                // Rotate the way to the front.
#pragma GCC unroll 8
                for (unsigned i = w; i > 0; --i)
                    set[i] = set[i - 1];
                set[0] = e | static_cast<std::uint32_t>(write);
                res.hit = true;
                return res;
            }
        }

        // The last way is the least recent, or invalid (0, clean) when
        // the set is not full.
        const std::uint32_t victim = set[ways - 1];
        if (victim & kDirty) {
            res.evicted_dirty = true;
            res.victim_line = lineOf(victim, line_addr) << kLineBits;
        }
#pragma GCC unroll 8
        for (unsigned i = ways - 1; i > 0; --i)
            set[i] = set[i - 1];
        CREV_ASSERT(key <= UINT32_MAX);
        set[0] = static_cast<std::uint32_t>(key) |
                 static_cast<std::uint32_t>(write);
        return res;
    }

    /** Drop a line if present (no writeback); used on frame reuse. */
    void invalidateLine(Addr addr);

    /** Drop every resident line of frame @p pfn (no writebacks). */
    void invalidateFrame(Addr pfn);

    /** Whether the line containing @p addr is resident. */
    bool contains(Addr addr) const;

  private:
    static constexpr std::uint32_t kDirty = 1;

    /**
     * The entry of @p line_addr without its dirty bit: the tag above
     * the set index, plus one so that no valid line's entry is 0. Kept
     * 64 bits wide so that a tag too wide for an entry matches none.
     */
    Addr
    keyOf(Addr line_addr) const
    {
        return ((line_addr >> set_bits_) + 1) << 1;
    }

    /** The line address of entry @p e, in the set of @p line_addr. */
    Addr
    lineOf(std::uint32_t e, Addr line_addr) const
    {
        return (((e >> 1) - Addr{1}) << set_bits_) |
               (line_addr & (num_sets_ - 1));
    }

    /** Index in entries_ of the first way of @p line_addr's set, in a
     *  cache of @p ways ways. */
    std::size_t
    setStart(Addr line_addr, unsigned ways) const
    {
        return static_cast<std::size_t>(line_addr & (num_sets_ - 1)) * ways;
    }

    unsigned assoc_;
    std::size_t num_sets_;
    unsigned set_bits_; //!< log2(num_sets_)
    /**
     * num_sets_ * assoc_ entries, each (keyOf(line) | dirty), or 0 for
     * an invalid way. A set lists its valid lines most recent first;
     * invalid ways sit at its tail.
     */
    std::vector<std::uint32_t> entries_;
};

} // namespace crev::mem

#endif // CREV_MEM_CACHE_H_
