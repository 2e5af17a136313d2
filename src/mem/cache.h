/**
 * @file
 * A set-associative, write-back, write-allocate cache timing model.
 *
 * The cache tracks only line addresses and dirtiness; actual data lives
 * in PhysMem. That is all the paper's bus-traffic experiments need: a
 * bus transaction happens when a line is fetched from, or written back
 * to, the level below. Replacement is true LRU within a set, ordered by
 * a per-cache access tick.
 */

#ifndef CREV_MEM_CACHE_H_
#define CREV_MEM_CACHE_H_

#include <cstdint>
#include <vector>

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
     * the set's least recently used line. Inline so MemorySystem's
     * per-line loop compiles to one frame.
     * @param write marks the line dirty.
     */
    CacheResult
    access(Addr addr, bool write)
    {
        const Addr line_addr = addr >> kLineBits;
        Line *ways = &lines_[setIndex(line_addr) * assoc_];
        ++tick_;

        CacheResult res;
        Line *victim = &ways[0];
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &line = ways[w];
            // lru != 0 keeps an invalid line's tag 0 from matching
            // physical line 0.
            if (line.lru != 0 && line.tag == line_addr) {
                line.lru = tick_;
                line.dirty |= write;
                ++hits_;
                res.hit = true;
                return res;
            }
            // One compare per way (an invalid line's lru 0 beats any
            // valid one) lets the compiler pick the victim with a
            // conditional move instead of an unpredictable branch.
            if (line.lru < victim->lru)
                victim = &line;
        }

        ++misses_;
        if (victim->dirty) {
            res.evicted_dirty = true;
            res.victim_line = victim->tag << kLineBits;
        }
        victim->tag = line_addr;
        victim->dirty = write;
        victim->lru = tick_;
        return res;
    }

    /** Drop a line if present (no writeback); used on frame reuse. */
    void invalidateLine(Addr addr);

    /** Drop every resident line of frame @p pfn (no writebacks). */
    void invalidateFrame(Addr pfn);

    /** Whether the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool dirty = false; //!< never set on an invalid line
        /** Tick of the last access; 0 iff the line is invalid (ticks
         *  start at 1, and invalidation resets the line to Line{}), so
         *  the least lru in a set is the victim. */
        std::uint64_t lru = 0;
    };

    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>(line_addr) & (num_sets_ - 1);
    }

    unsigned assoc_;
    std::size_t num_sets_;
    std::vector<Line> lines_; // num_sets_ * assoc_
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace crev::mem

#endif // CREV_MEM_CACHE_H_
