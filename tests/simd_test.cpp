/**
 * @file
 * Tests for the packed-bitmap batch operations (base/simd.h):
 * population counts, any-set tests, and span fills, on word counts of
 * every size the tag-word and shadow-summary paths use.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "base/simd.h"

namespace crev {
namespace {

/** Word counts from empty through the shadow bitmap's 64-word
 *  blocks, with odd tails. */
const std::size_t kSizes[] = {0, 1, 3, 4, 7, 8, 9, 13, 64, 129};

TEST(SimdTest, PopcountWordsCountsEverySetBit)
{
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    // The sweep's density regimes: clean, sparse, full, revoke-dense.
    for (double density : {0.0, 0.02, 1.0, 0.25}) {
        for (std::size_t n : kSizes) {
            std::vector<std::uint64_t> w(n, 0);
            std::uint64_t expected = 0;
            for (std::size_t i = 0; i < n; ++i)
                for (unsigned b = 0; b < 64; ++b)
                    if (coin(rng) < density) {
                        w[i] |= std::uint64_t{1} << b;
                        ++expected;
                    }
            EXPECT_EQ(simd::popcountWords(w.data(), n), expected)
                << "density " << density << " n " << n;
        }
    }
}

TEST(SimdTest, AnySetFindsLoneBitAtEveryPosition)
{
    // A single bit anywhere in a 9-word span must be seen; an
    // all-zero span must not report one.
    for (std::size_t word = 0; word < 9; ++word) {
        for (unsigned bit : {0u, 31u, 63u}) {
            std::vector<std::uint64_t> w(9, 0);
            EXPECT_FALSE(simd::anySet(w.data(), w.size()));
            w[word] = std::uint64_t{1} << bit;
            EXPECT_TRUE(simd::anySet(w.data(), w.size()))
                << "word " << word << " bit " << bit;
        }
    }
}

TEST(SimdTest, FillWordsWritesExactlyTheSpan)
{
    constexpr std::uint64_t kSentinel = 0x5555555555555555;
    for (std::size_t n : kSizes) {
        for (std::uint64_t v : {std::uint64_t{0}, ~std::uint64_t{0},
                                std::uint64_t{0xDEADBEEFCAFEF00D}}) {
            // Fill the interior only: the sentinels catch overwrites
            // past either end.
            std::vector<std::uint64_t> w(n + 2, kSentinel);
            simd::fillWords(w.data() + 1, n, v);
            EXPECT_EQ(w.front(), kSentinel);
            EXPECT_EQ(w.back(), kSentinel);
            for (std::size_t i = 1; i <= n; ++i)
                EXPECT_EQ(w[i], v) << "n " << n << " word " << i;
        }
    }
}

} // namespace
} // namespace crev
