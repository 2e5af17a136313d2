// Lint fixture: stale-waiver detection (crev_lint.py --self-test).
// Exactly one waiver below is live; the self-test requires the other
// two to be reported stale (one dead, one naming a retired rule).
// Not compiled — input for the self-test only.
#include <mutex>

namespace crev {

struct Waivers
{
    // Live: the next line really does declare a host mutex.
    // lint: threading-ok (fixture: live waiver)
    std::mutex host_lock_;

    // Dead: nothing here trips raw-threading any more.
    // lint: threading-ok (fixture: violation was since removed)
    int plain_counter_ = 0;

    // Retired: shared-mutation is now a set of proof types.
    // lint: shared-mutation-ok (fixture: rule no longer exists)
    unsigned gen_ = 0;
};

} // namespace crev
