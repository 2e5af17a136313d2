// Analyze fixture: every violation below is waived with an
// `analyze: <rule>-ok` annotation, so the file must be CLEAN under
// `crev_analyze --self-test` with at least one waiver used per pass.
// Not compiled -- input for the self-test only.

namespace wvfix {

struct SimThread
{
    void accrue(unsigned long cycles);
};

struct SimEvent
{
    void wait(SimThread &t);
};

void
SimEvent::wait(SimThread &t)
{
    t.accrue(1);
}

struct NoYield
{
    explicit NoYield(SimThread &t);
};

struct Mmu
{
    unsigned gen_ = 0;

    void flipGen();
};

// Single-writer: flipped only during construction, before any second
// thread exists.
void
Mmu::flipGen() // analyze: lock-evidence-ok (fixture: init-time only)
{
    gen_ ^= 1u;
}

struct Waiter
{
    SimEvent ev_;

    void parkInside(SimThread &t);
};

void
Waiter::parkInside(SimThread &t)
{
    NoYield guard(t);
    // analyze: noyield-reach-ok (fixture: models the waived idiom)
    ev_.wait(t);
}

} // namespace wvfix
