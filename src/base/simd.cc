#include "base/simd.h"

#include <atomic> // dispatch cache; see waiver below
#include <bit>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace crev::simd {

namespace {

// Cached dispatch level; -1 = not yet detected. Concurrent first
// calls from host bench workers race benignly to the same value, but
// the store must still be a real atomic for TSan.
// lint: threading-ok (one-shot host dispatch cache, monotone value)
std::atomic<int> g_level{-1};

int
detect()
{
    const char *env = std::getenv("CREV_SIMD");
    if (env != nullptr && std::strcmp(env, "0") == 0)
        return static_cast<int>(Level::kScalar);
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return static_cast<int>(Level::kAvx2);
#endif
    return static_cast<int>(Level::kScalar);
}

// --- scalar kernels (always available, the reference semantics) ---

std::uint64_t
popcountWordsScalar(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(w[i]));
    return total;
}

bool
anySetScalar(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc |= w[i];
    return acc != 0;
}

void
fillWordsScalar(std::uint64_t *w, std::size_t n, std::uint64_t value)
{
    for (std::size_t i = 0; i < n; ++i)
        w[i] = value;
}

#if defined(__x86_64__)

// --- AVX2 kernels. Each is a pure function with the same contract as
// its scalar twin; simd_test differential-checks them on random
// inputs across the sweep's density regimes. ---

__attribute__((target("avx2"))) std::uint64_t
popcountWordsAvx2(const std::uint64_t *w, std::size_t n)
{
    // Nibble-LUT popcount (Mula): per-byte counts via two shuffles,
    // horizontally summed into four 64-bit accumulators with SAD.
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i));
        const __m256i lo = _mm256_and_si256(v, low);
        const __m256i hi =
            _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        const __m256i cnt =
            _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                            _mm256_shuffle_epi8(lut, hi));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
    }
    std::uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
    std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        total += static_cast<std::uint64_t>(std::popcount(w[i]));
    return total;
}

__attribute__((target("avx2"))) bool
anySetAvx2(const std::uint64_t *w, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(w + i));
        if (!_mm256_testz_si256(v, v))
            return true;
    }
    return anySetScalar(w + i, n - i);
}

__attribute__((target("avx2"))) void
fillWordsAvx2(std::uint64_t *w, std::size_t n, std::uint64_t value)
{
    const __m256i v =
        _mm256_set1_epi64x(static_cast<long long>(value));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(w + i), v);
    for (; i < n; ++i)
        w[i] = value;
}

#endif // __x86_64__

} // namespace

Level
level()
{
    int l = g_level.load(std::memory_order_relaxed);
    if (l < 0) {
        l = detect();
        g_level.store(l, std::memory_order_relaxed);
    }
    return static_cast<Level>(l);
}

void
refreshFromEnv()
{
    g_level.store(detect(), std::memory_order_relaxed);
}

void
forceLevel(Level l)
{
#if defined(__x86_64__)
    if (l == Level::kAvx2 && !__builtin_cpu_supports("avx2"))
        l = Level::kScalar;
#else
    l = Level::kScalar;
#endif
    g_level.store(static_cast<int>(l), std::memory_order_relaxed);
}

const char *
levelName(Level l)
{
    return l == Level::kAvx2 ? "avx2" : "scalar";
}

// Word-count floor below which the vector paths lose: for n < 8 the
// setup (LUT broadcast, lane reduction) outweighs one or two scalar
// iterations, and the hot 4-word TagWords calls measured slower
// through AVX2 than straight scalar. The wide paths are reserved for
// the shadow bitmap's 64-word blocks and other large spans.
constexpr std::size_t kMinVectorWords = 8;

std::uint64_t
popcountWords(const std::uint64_t *w, std::size_t n)
{
#if defined(__x86_64__)
    if (n >= kMinVectorWords && level() == Level::kAvx2)
        return popcountWordsAvx2(w, n);
#endif
    return popcountWordsScalar(w, n);
}

bool
anySet(const std::uint64_t *w, std::size_t n)
{
#if defined(__x86_64__)
    if (n >= kMinVectorWords && level() == Level::kAvx2)
        return anySetAvx2(w, n);
#endif
    return anySetScalar(w, n);
}

void
fillWords(std::uint64_t *w, std::size_t n, std::uint64_t value)
{
#if defined(__x86_64__)
    if (n >= kMinVectorWords && level() == Level::kAvx2) {
        fillWordsAvx2(w, n, value);
        return;
    }
#endif
    fillWordsScalar(w, n, value);
}

} // namespace crev::simd
