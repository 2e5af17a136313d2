/**
 * @file
 * Word-granularity batch operations over packed bitmaps: population
 * counts, any-set tests, and span fills. The tag-word and
 * shadow-summary paths reduce to these three loops.
 */

#ifndef CREV_BASE_SIMD_H_
#define CREV_BASE_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace crev::simd {

/** Population count over @p n 64-bit words. */
inline std::uint64_t
popcountWords(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(w[i]));
    return total;
}

/** Whether any of @p n words is non-zero (OR-reduction). */
inline bool
anySet(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc |= w[i];
    return acc != 0;
}

/** Store @p value into all @p n words (span paint/clear). */
inline void
fillWords(std::uint64_t *w, std::size_t n, std::uint64_t value)
{
    for (std::size_t i = 0; i < n; ++i)
        w[i] = value;
}

/** The only kernel tier. Kept with level()/levelName() only because
 *  perfbench/ still reports them. */
enum class Level { kScalar = 0 };

inline Level level() { return Level::kScalar; }
inline const char *levelName(Level) { return "scalar"; }

} // namespace crev::simd

#endif // CREV_BASE_SIMD_H_
