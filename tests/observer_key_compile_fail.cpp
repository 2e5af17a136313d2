/**
 * @file
 * A translation unit that must NOT compile. Only off-clock observer
 * code may read simulated memory without charging cycles, so only
 * revoker::Auditor can construct the vm::ObserverKey that
 * Mmu::peekByte demands. The observer_key_compile_fail ctest passes
 * only when the compiler rejects this unit because the key's
 * constructor is private.
 */

#include <cstdint>

#include "vm/mmu.h"

namespace crev {

bool
unchargedPeek(vm::Mmu &mmu, Addr va)
{
    std::uint8_t byte = 0;
    return mmu.peekByte(vm::ObserverKey{}, va, &byte);
}

} // namespace crev
