// Lint fixture: must fail the pte-publish rule.
// Not compiled — input for `crev_lint.py --self-test` only.

namespace crev {

struct Pte
{
    unsigned clg = 0;
    bool cap_load_trap = false;
    bool cap_dirty = false;
};

void
publishWithoutInvalidation(Pte &p, unsigned gen)
{
    // The stale-PTE-cache bug class: an in-place CLG/trap rewrite
    // outside SweepEngine::publishPage, with no TLB shootdown paired
    // with it (publishPage's healing publishes pair one, because TLBs
    // cache these two bits; the dirty bit is read from the live PTE).
    // A core holding a cached translation would keep trapping (or
    // worse, not trap) on the stale generation.
    p.clg = gen;
    p.cap_load_trap = false;
    p.cap_dirty = false;
}

} // namespace crev
