#include "base/zero_pages.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "base/logging.h"

namespace crev::detail {

void *
mapZeroPages(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        panic("mmap of %zu zero bytes failed: %s", bytes,
              std::strerror(errno));
    return p;
}

void
unmapZeroPages(void *p, std::size_t bytes)
{
    CREV_ASSERT(munmap(p, bytes) == 0);
}

} // namespace crev::detail
