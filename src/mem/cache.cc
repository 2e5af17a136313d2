#include "mem/cache.h"

#include "base/logging.h"

namespace crev::mem {

Cache::Cache(const CacheConfig &cfg) : assoc_(cfg.assoc)
{
    CREV_ASSERT(cfg.assoc > 0);
    num_sets_ = cfg.size_bytes / (kLineSize * cfg.assoc);
    CREV_ASSERT(num_sets_ > 0);
    CREV_ASSERT((num_sets_ & (num_sets_ - 1)) == 0);
    lines_.resize(num_sets_ * assoc_);
}

void
Cache::invalidateLine(Addr addr)
{
    const Addr line_addr = addr >> kLineBits;
    Line *ways = &lines_[setIndex(line_addr) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (ways[w].lru != 0 && ways[w].tag == line_addr)
            ways[w] = Line{};
}

void
Cache::invalidateFrame(Addr pfn)
{
    const Addr base = pfn << kPageBits;
    for (Addr off = 0; off < kPageSize; off += kLineSize)
        invalidateLine(base + off);
}

bool
Cache::contains(Addr addr) const
{
    const Addr line_addr = addr >> kLineBits;
    const Line *ways = &lines_[setIndex(line_addr) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w)
        if (ways[w].lru != 0 && ways[w].tag == line_addr)
            return true;
    return false;
}

} // namespace crev::mem
