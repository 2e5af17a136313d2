/**
 * @file
 * A translation unit that must NOT compile. Only the revocation
 * service's base class opens and closes epochs, so only
 * revoker::Revoker can construct the kern::EpochKey that
 * EpochCounter::advance demands. The epoch_key_compile_fail ctest
 * passes only when the compiler rejects this unit because the key's
 * constructor is private.
 */

#include "kern/kernel.h"

namespace crev {

void
openEpochBehindTheRevokersBack(kern::EpochCounter &epoch,
                               sim::SimThread &t)
{
    epoch.advance(kern::EpochKey{}, t);
}

} // namespace crev
