/**
 * @file
 * An array whose host pages commit on first write (DESIGN.md §14.4).
 *
 * Several host structures are sized by the simulated address window,
 * not by the run: a table entry per heap page or granule, a bitmap
 * block per 4096 granules, a fiber stack deep enough for any workload
 * body. A zero-filled std::vector or `new T[]()` would write every
 * byte up front, making each machine pay for the whole window before
 * its first simulated cycle. ZeroPages maps the array as anonymous
 * private memory without a swap reservation instead: it reads as
 * zero, and the kernel commits a page only when it is first written.
 */

#ifndef CREV_BASE_ZERO_PAGES_H_
#define CREV_BASE_ZERO_PAGES_H_

#include <cstddef>
#include <type_traits>
#include <utility>

namespace crev {

namespace detail {
/** Map @p bytes of zero pages (panics when the map fails). */
void *mapZeroPages(std::size_t bytes);
void unmapZeroPages(void *p, std::size_t bytes);
} // namespace detail

/**
 * A move-only array of @p T over lazily committed zero pages. The
 * element type must be valid when all its bytes are zero (integers,
 * pointers, bytes).
 */
template <typename T>
class ZeroPages
{
    static_assert(std::is_trivially_copyable_v<T> &&
                  std::is_trivially_destructible_v<T>);

  public:
    ZeroPages() = default;

    explicit ZeroPages(std::size_t count)
        : data_(static_cast<T *>(detail::mapZeroPages(count * sizeof(T)))),
          count_(count)
    {
    }

    ~ZeroPages()
    {
        if (data_ != nullptr)
            detail::unmapZeroPages(data_, count_ * sizeof(T));
    }

    ZeroPages(ZeroPages &&o) noexcept
        : data_(std::exchange(o.data_, nullptr)),
          count_(std::exchange(o.count_, 0))
    {
    }

    ZeroPages &operator=(ZeroPages &&o) noexcept
    {
        ZeroPages tmp(std::move(o));
        std::swap(data_, tmp.data_);
        std::swap(count_, tmp.count_);
        return *this;
    }

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }
    T *data() { return data_; }

  private:
    T *data_ = nullptr;
    std::size_t count_ = 0;
};

} // namespace crev

#endif // CREV_BASE_ZERO_PAGES_H_
