// Analyze fixture: the violation below is waived with an
// `analyze: noyield-reach-ok` annotation, so the file must be CLEAN
// under `crev_analyze --self-test` with the waiver used.
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
