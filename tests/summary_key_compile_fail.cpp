/**
 * @file
 * A translation unit that must NOT compile. Shadow-summary updates
 * move atomically with the simulated shadow bytes, so only
 * revoker::RevocationBitmap, revoker::Revoker and revoker::Auditor
 * can construct the revoker::SummaryKey that ShadowSummary's
 * mutators demand. The summary_key_compile_fail ctest passes only
 * when the compiler rejects this unit because the key's constructor
 * is private.
 */

#include "revoker/shadow_summary.h"

namespace crev {

void
paintBehindTheBitmapsBack(revoker::ShadowSummary &summary, Addr g)
{
    summary.setGranules(revoker::SummaryKey{}, g, g + 1, true);
}

} // namespace crev
