// Lint fixture: must fail the fiber-state rule.
// Not compiled — input for `crev_lint.py --self-test` only.
#include <cfenv>
#include <csignal>
#include <ucontext.h>

namespace crev {

struct HostStateLeak
{
    // Each of these changes host state that the fiber switch does not
    // save, so the next simulated thread on the host thread would run
    // with it.
    ucontext_t ctx_;

    void
    roundUp()
    {
        fesetround(FE_UPWARD);
    }

    void
    flushDenormals()
    {
        unsigned csr = 0x9fc0;
        asm volatile("ldmxcsr %0" : : "m"(csr));
    }

    void
    maskSignals(const sigset_t *set)
    {
        sigprocmask(SIG_BLOCK, set, nullptr);
    }
};

} // namespace crev
