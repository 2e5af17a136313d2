#include "mem/phys_mem.h"

#include <algorithm>

#include "base/logging.h"

namespace crev::mem {

Addr
PhysMem::allocFrame()
{
    Addr pfn;
    if (!free_list_.empty()) {
        pfn = free_list_.back();
        free_list_.pop_back();
        *frames_[pfn] = Frame{}; // zero on reuse
    } else {
        pfn = frames_.size();
        frames_.push_back(std::make_unique<Frame>());
    }
    ++in_use_;
    peak_ = std::max(peak_, in_use_);
    return pfn;
}

void
PhysMem::freeFrame(Addr pfn)
{
    CREV_ASSERT(pfn != 0 && pfn < frames_.size());
    CREV_ASSERT(in_use_ > 0);
    --in_use_;
    free_list_.push_back(pfn);
}

} // namespace crev::mem
