#include "mem/cache.h"

#include <bit>

#include "base/logging.h"

namespace crev::mem {

Cache::Cache(const CacheConfig &cfg) : assoc_(cfg.assoc)
{
    CREV_ASSERT(cfg.assoc > 0);
    num_sets_ = cfg.size_bytes / (kLineSize * cfg.assoc);
    CREV_ASSERT(num_sets_ > 0);
    CREV_ASSERT((num_sets_ & (num_sets_ - 1)) == 0);
    set_bits_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    entries_.resize(num_sets_ * assoc_);
}

void
Cache::invalidateLine(Addr addr)
{
    const Addr line_addr = addr >> kLineBits;
    const Addr key = keyOf(line_addr);
    std::uint32_t *set = &entries_[setStart(line_addr, assoc_)];
    for (unsigned w = 0; w < assoc_; ++w) {
        if ((set[w] & ~kDirty) == key) {
            // Close the gap, keeping recency order; the tail way
            // becomes invalid.
            for (unsigned i = w; i + 1 < assoc_; ++i)
                set[i] = set[i + 1];
            set[assoc_ - 1] = 0;
            return;
        }
    }
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
    const Addr key = keyOf(line_addr);
    const std::uint32_t *set = &entries_[setStart(line_addr, assoc_)];
    for (unsigned w = 0; w < assoc_; ++w)
        if ((set[w] & ~kDirty) == key)
            return true;
    return false;
}

} // namespace crev::mem
