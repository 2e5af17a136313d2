/**
 * @file
 * A translation unit that must NOT compile. Asking whether a page
 * holds any tag is free, because it stands in for the PTE's
 * hardware-kept capability-dirty state, and it steers simulated work,
 * so only revoker::SweepEngine can construct the vm::CleanCheckKey
 * that Mmu::pageHasTags demands. The clean_check_key_compile_fail
 * ctest passes only when the compiler rejects this unit because the
 * key's constructor is private.
 */

#include "vm/mmu.h"

namespace crev {

bool
freeTagCheck(vm::Mmu &mmu, Addr va)
{
    return mmu.pageHasTags(vm::CleanCheckKey{}, va);
}

} // namespace crev
