#include "core/mutator.h"

#include <algorithm>

#include "base/logging.h"
#include "core/machine.h"
#include "vm/fault.h"

namespace crev::core {

Mutator::Mutator(Machine &m, std::uint64_t seed) : m_(m), rng_(seed) {}

sim::SimThread &
Mutator::thread()
{
    CREV_ASSERT(thread_ != nullptr);
    return *thread_;
}

Addr
Mutator::check(const cap::Capability &c, Addr off, std::size_t len,
               std::uint32_t need_perms)
{
    thread().accrue(1);
    if (!c.tag)
        throw vm::CapabilityFault(vm::CapabilityFault::Kind::kTag,
                                  c.address + off);
    if (!c.hasPerms(need_perms))
        throw vm::CapabilityFault(
            vm::CapabilityFault::Kind::kPermission, c.address + off);
    const Addr va = c.address + off;
    if (va < c.base || va + len > c.top || va + len < va)
        throw vm::CapabilityFault(vm::CapabilityFault::Kind::kBounds,
                                  va);
    return va;
}

cap::Capability
Mutator::malloc(std::size_t size)
{
    return m_.heap().malloc(thread(), size);
}

void
Mutator::free(const cap::Capability &c)
{
    m_.heap().free(thread(), c);
}

std::uint64_t
Mutator::load64(const cap::Capability &c, Addr off)
{
    const Addr va = check(c, off, 8, cap::kPermLoad);
    return m_.mmu().loadU64(thread(), va);
}

void
Mutator::store64(const cap::Capability &c, Addr off, std::uint64_t v)
{
    const Addr va = check(c, off, 8, cap::kPermStore);
    m_.mmu().storeU64(thread(), va, v);
}

cap::Capability
Mutator::loadCap(const cap::Capability &c, Addr off)
{
    const Addr va = check(c, off, kGranuleSize, cap::kPermLoadCap);
    CREV_ASSERT(va % kGranuleSize == 0);
    return m_.mmu().loadCap(thread(), va);
}

void
Mutator::storeCap(const cap::Capability &c, Addr off,
                  const cap::Capability &v)
{
    const Addr va = check(c, off, kGranuleSize, cap::kPermStoreCap);
    CREV_ASSERT(va % kGranuleSize == 0);
    m_.mmu().storeCap(thread(), va, v);
}

void
Mutator::fill(const cap::Capability &c, Addr off, std::size_t len,
              std::uint8_t byte)
{
    const Addr va = check(c, off, len, cap::kPermStore);
    std::uint8_t buf[256];
    std::fill(std::begin(buf), std::end(buf), byte);
    Addr p = va;
    std::size_t remaining = len;
    while (remaining > 0) {
        const std::size_t n = std::min(remaining, sizeof(buf));
        m_.mmu().storeData(thread(), p, buf, n);
        p += n;
        remaining -= n;
    }
}

void
Mutator::readBytes(const cap::Capability &c, Addr off, std::size_t len)
{
    const Addr va = check(c, off, len, cap::kPermLoad);
    // Nothing is copied: the bytes are discarded. The chunks still set
    // where translations, charges and yields fall.
    constexpr std::size_t kChunk = 256;
    Addr p = va;
    std::size_t remaining = len;
    while (remaining > 0) {
        const std::size_t n = std::min(remaining, kChunk);
        m_.mmu().loadData(thread(), p, nullptr, n);
        p += n;
        remaining -= n;
    }
}

void
Mutator::compute(Cycles cycles)
{
    thread().accrue(cycles);
}

Cycles
Mutator::now() const
{
    CREV_ASSERT(thread_ != nullptr);
    return thread_->now();
}

void
Mutator::sleepUntil(Cycles t)
{
    thread().sleepUntil(t);
}

void
Mutator::sleep(Cycles dt)
{
    thread().sleep(dt);
}

std::size_t
Mutator::hoardPut(const cap::Capability &c)
{
    thread().accrue(m_.scheduler().costs().syscall);
    return m_.kernel().hoard().put(thread(), c);
}

cap::Capability
Mutator::hoardTake(std::size_t slot)
{
    thread().accrue(m_.scheduler().costs().syscall);
    return m_.kernel().hoard().take(thread(), slot);
}

} // namespace crev::core
