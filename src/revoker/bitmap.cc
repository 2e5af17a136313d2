#include "revoker/bitmap.h"

#include <algorithm>

#include "base/logging.h"
#include "check/race_checker.h"
#include "trace/trace.h"
#include "vm/address_space.h"

namespace crev::revoker {

void
RevocationBitmap::setRange(sim::SimThread &t, Addr base, Addr len,
                           bool value)
{
    CREV_ASSERT(base % kGranuleSize == 0);
    CREV_ASSERT(len % kGranuleSize == 0);
    CREV_ASSERT(len > 0);

    Addr g = base >> kGranuleBits;        // first granule index
    const Addr g_end = (base + len) >> kGranuleBits;

    // Host mirror and simulated bytes must update atomically (no
    // yield between them), or a concurrent probe's self-check would
    // observe them out of sync.
    auto mirror = [&](Addr from, Addr to) {
        painted_.setGranules(from, to, value);
    };

    // Partial leading/trailing bytes need an atomic RMW (a real
    // allocator uses an atomic OR/AND: without atomicity, a paint
    // racing a clear of another bit in the same byte could lose one
    // of the updates). Whole bytes in the middle are written in bulk.
    check::RaceChecker *checker = t.scheduler().checker();
    auto rmw_byte = [&](Addr byte_va, std::uint8_t mask, Addr from,
                        Addr to) {
        if (checker != nullptr)
            checker->onShadowRmwBegin(t.id(), t.now(), byte_va);
        std::uint8_t b = 0;
        if (torn_rmw_for_test_) {
            // Deliberately broken variant: no NoYield guard, and the
            // token is handed away between the load and the store —
            // exactly the lost-update window the guard prevents.
            mirror(from, to);
            mmu_.loadData(t, byte_va, &b, 1);
            t.yieldNow();
            b = value ? static_cast<std::uint8_t>(b | mask)
                      : static_cast<std::uint8_t>(b & ~mask);
            mmu_.storeData(t, byte_va, &b, 1);
        } else {
            sim::SimThread::NoYield guard(t);
            mirror(from, to);
            mmu_.loadData(t, byte_va, &b, 1);
            b = value ? static_cast<std::uint8_t>(b | mask)
                      : static_cast<std::uint8_t>(b & ~mask);
            mmu_.storeData(t, byte_va, &b, 1);
        }
        if (checker != nullptr)
            checker->onShadowRmwEnd(t.id(), byte_va);
    };

    while (g < g_end && (g & 7) != 0) {
        std::uint8_t mask = 0;
        const Addr first = g;
        const Addr byte_va = vm::kShadowBase + (g >> 3);
        while (g < g_end && (vm::kShadowBase + (g >> 3)) == byte_va) {
            mask |= static_cast<std::uint8_t>(1u << (g & 7));
            ++g;
        }
        rmw_byte(byte_va, mask, first, g);
    }

    // Bulk middle: whole shadow bytes, stored in cache-line chunks.
    std::uint8_t chunk[64];
    std::fill(std::begin(chunk), std::end(chunk),
              value ? std::uint8_t{0xFF} : std::uint8_t{0});
    while (g_end - g >= 8) {
        const Addr byte_va = vm::kShadowBase + (g >> 3);
        const Addr whole_bytes = (g_end - g) >> 3;
        const std::size_t n = static_cast<std::size_t>(
            std::min<Addr>(whole_bytes, sizeof(chunk)));
        sim::SimThread::NoYield guard(t);
        if (checker != nullptr)
            checker->onShadowWrite(t.id(), t.now(), byte_va,
                                   static_cast<Addr>(n));
        mirror(g, g + static_cast<Addr>(n) * 8);
        mmu_.storeData(t, byte_va, chunk, n);
        g += static_cast<Addr>(n) * 8;
    }

    // Trailing partial byte.
    if (g < g_end) {
        std::uint8_t mask = 0;
        const Addr first = g;
        const Addr byte_va = vm::kShadowBase + (g >> 3);
        while (g < g_end) {
            mask |= static_cast<std::uint8_t>(1u << (g & 7));
            ++g;
        }
        rmw_byte(byte_va, mask, first, g_end);
    }
}

void
RevocationBitmap::paint(sim::SimThread &t, Addr base, Addr len)
{
    if (tracer_ != nullptr)
        tracer_->record(t.id(), t.core(), t.now(),
                        trace::EventType::kPhaseBegin,
                        static_cast<std::uint8_t>(trace::Phase::kPaint),
                        base);
    setRange(t, base, len, true);
    if (tracer_ != nullptr)
        tracer_->record(t.id(), t.core(), t.now(),
                        trace::EventType::kPhaseEnd,
                        static_cast<std::uint8_t>(trace::Phase::kPaint),
                        base);
}

void
RevocationBitmap::clear(sim::SimThread &t, Addr base, Addr len)
{
    setRange(t, base, len, false);
}

bool
RevocationBitmap::probe(sim::SimThread &t, Addr addr)
{
    const Addr g = addr >> kGranuleBits;
    const Addr byte_va = vm::kShadowBase + (g >> 3);
    if (auto *c = t.scheduler().checker())
        c->onShadowProbe(t.id(), t.now(), byte_va);
    std::uint8_t b = 0;
    // Host fast path: when the probing core's TLB already maps the
    // shadow page, loadData() would charge exactly one access — the
    // MMU's fast shadow load issues that identical charge without the
    // translate/segment machinery. Misses fall back to the full path.
    if (!mmu_.tryKernelShadowLoad(t, byte_va, &b))
        mmu_.loadData(t, byte_va, &b, 1);
    const bool bit = (b >> (g & 7)) & 1;
    // Self-check: the simulated bitmap and host mirror must agree.
    // O(1) against the two-level summary, so it stays cheap enough to
    // keep compiled into the hot path.
    CREV_ASSERT(bit == painted_.test(addr));
    return bit;
}

bool
RevocationBitmap::probeQuiet(Addr addr) const
{
    return painted_.test(addr);
}

} // namespace crev::revoker
