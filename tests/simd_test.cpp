/**
 * @file
 * Differential tests for the runtime-dispatched SIMD batch kernels
 * (DESIGN.md §17.1): every kernel's dispatched variant is checked
 * against the scalar reference on randomized inputs across the
 * sweep's density regimes (clean, sparse, full, revoke-dense). The
 * AVX2 and scalar variants must be extensionally equal on every
 * input — that equality is what makes the dispatch level a pure host
 * concern.
 *
 * On hosts without AVX2, forceLevel(kAvx2) falls back to scalar and
 * the differentials pass trivially; CI's x86-64 runners exercise the
 * real wide paths.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "base/simd.h"

namespace crev {
namespace {

using simd::Level;

/** Deterministic word arrays mimicking the sweep's tag densities. */
std::vector<std::uint64_t>
makeWords(std::size_t n, double density, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::vector<std::uint64_t> w(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (unsigned b = 0; b < 64; ++b)
            if (coin(rng) < density)
                w[i] |= std::uint64_t{1} << b;
    return w;
}

/** The four density regimes the sweep microbench measures. */
const double kDensities[] = {0.0, 0.02, 1.0, 0.25};

/** Word counts straddling the small-n scalar floor and the vector
 *  path's 4-word stride (with and without a tail). */
const std::size_t kSizes[] = {0, 1, 3, 4, 7, 8, 9, 13, 64, 129};

/** Run @p fn once under scalar dispatch and once under the best
 *  level, returning both results for comparison. */
template <typename Fn>
auto
bothLevels(Fn &&fn)
{
    simd::forceLevel(Level::kScalar);
    auto scalar = fn();
    simd::forceLevel(Level::kAvx2);
    auto best = fn();
    simd::refreshFromEnv();
    return std::make_pair(scalar, best);
}

TEST(SimdTest, PopcountWordsMatchesScalarAcrossRegimes)
{
    std::uint64_t seed = 1;
    for (double d : kDensities) {
        for (std::size_t n : kSizes) {
            const auto w = makeWords(n, d, seed++);
            const auto [s, b] = bothLevels(
                [&] { return simd::popcountWords(w.data(), n); });
            EXPECT_EQ(s, b) << "density " << d << " n " << n;
        }
    }
}

TEST(SimdTest, AnySetMatchesScalarAcrossRegimes)
{
    std::uint64_t seed = 100;
    for (double d : kDensities) {
        for (std::size_t n : kSizes) {
            const auto w = makeWords(n, d, seed++);
            const auto [s, b] = bothLevels(
                [&] { return simd::anySet(w.data(), n); });
            EXPECT_EQ(s, b) << "density " << d << " n " << n;
        }
    }
}

TEST(SimdTest, AnySetFindsLoneBitAtEveryPosition)
{
    // A single bit anywhere in a 9-word span must be seen by both
    // variants (exercises the 4-word stride and the scalar tail).
    for (std::size_t word = 0; word < 9; ++word) {
        for (unsigned bit : {0u, 31u, 63u}) {
            std::vector<std::uint64_t> w(9, 0);
            w[word] = std::uint64_t{1} << bit;
            const auto [s, b] = bothLevels(
                [&] { return simd::anySet(w.data(), w.size()); });
            EXPECT_TRUE(s);
            EXPECT_TRUE(b);
        }
    }
}

TEST(SimdTest, FillWordsMatchesScalarAcrossSizes)
{
    for (std::size_t n : kSizes) {
        for (std::uint64_t v : {std::uint64_t{0}, ~std::uint64_t{0},
                                std::uint64_t{0xDEADBEEFCAFEF00D}}) {
            auto run = [&] {
                std::vector<std::uint64_t> w(n + 2, 0x5555555555555555);
                // Fill the interior only: the sentinels catch
                // overwrites past n.
                simd::fillWords(w.data() + 1, n, v);
                return w;
            };
            const auto [s, b] = bothLevels(run);
            EXPECT_EQ(s, b) << "n " << n << " v " << v;
            EXPECT_EQ(s.front(), 0x5555555555555555u);
            EXPECT_EQ(s.back(), 0x5555555555555555u);
        }
    }
}

TEST(SimdTest, EnvForcesScalarAndRefreshRestores)
{
    // CREV_SIMD=0 must pin the dispatch at scalar; clearing it
    // restores the host's best level. (Whatever that level is, the
    // kernels above proved it extensionally scalar-equal.)
    setenv("CREV_SIMD", "0", 1);
    simd::refreshFromEnv();
    EXPECT_EQ(simd::level(), Level::kScalar);
    unsetenv("CREV_SIMD");
    simd::refreshFromEnv();
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        EXPECT_EQ(simd::level(), Level::kAvx2);
#endif
}

} // namespace
} // namespace crev
