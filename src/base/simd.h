/**
 * @file
 * Runtime-dispatched SIMD batch kernels for the host-side hot loops.
 *
 * The tag-word and shadow-summary paths reduce to a small set of
 * word-granularity batch operations over packed bitmaps: population
 * counts, any-set tests, and span fills. This header is the single
 * dispatch point: every kernel has a portable scalar implementation
 * and (on x86-64) an AVX2 variant selected once at runtime, so the
 * simulated results are bit-identical by construction — the kernels
 * are pure functions of their inputs and the two variants are
 * differential-tested against each other (simd_test).
 *
 * Dispatch honours the CREV_SIMD environment variable: unset or any
 * value other than "0" enables the best level the host supports;
 * CREV_SIMD=0 forces the scalar fallback (CI runs a forced-scalar
 * determinism leg with exactly this switch). Benches may pin a level
 * explicitly with forceLevel() for A/B measurement.
 */

#ifndef CREV_BASE_SIMD_H_
#define CREV_BASE_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace crev::simd {

/** Kernel implementation tiers, in increasing preference order. */
enum class Level {
    kScalar = 0, //!< portable fallback, always available
    kAvx2 = 1,   //!< 256-bit integer kernels (x86-64 AVX2)
};

/** The active dispatch level (detected once, then cached). */
Level level();

/** Re-run detection (CREV_SIMD + cpuid); tests call this after
 *  changing the environment. */
void refreshFromEnv();

/** Pin the dispatch level (bench A/B legs); undone by
 *  refreshFromEnv(). Levels the host cannot execute fall back to
 *  scalar. */
void forceLevel(Level l);

/** Human-readable level name ("scalar", "avx2"). */
const char *levelName(Level l);

/** Population count over @p n 64-bit words. */
std::uint64_t popcountWords(const std::uint64_t *w, std::size_t n);

/** Whether any of @p n words is non-zero (OR-reduction). */
bool anySet(const std::uint64_t *w, std::size_t n);

/** Store @p value into all @p n words (span paint/clear). */
void fillWords(std::uint64_t *w, std::size_t n, std::uint64_t value);

} // namespace crev::simd

#endif // CREV_BASE_SIMD_H_
