/**
 * @file
 * A translation unit that must NOT compile. Mapping teardown waits
 * behind the munmap quiesce barrier (paper §4.3) and a quarantined
 * reservation is released only at epoch completion (§6.2), so only
 * kern::Kernel can construct the vm::MappingKey that
 * AddressSpace::unmap, takeNewlyQuarantined and release demand. The
 * mapping_key_compile_fail ctest passes only when the compiler
 * rejects this unit because the key's constructor is private.
 */

#include "vm/address_space.h"

namespace crev {

void
unmapPastTheBarrier(vm::AddressSpace &as, sim::SimThread &t, Addr base)
{
    as.unmap(vm::MappingKey{}, t, base, kPageSize);
}

} // namespace crev
