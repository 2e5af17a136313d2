// Analyze fixture: a LEGAL NoYield window -- a synthetic lock-free
// queue detach whose only calls are the noyield-aware accrue and a
// race-checker hook. Must stay CLEAN under every pass -- this pins
// the analyzer's NoYield/accrue cut policy (accrue consults
// noyield_depth_ before yielding, so the window may charge cycles
// even though accrue can reach yieldSlow). The names are the
// fixture's own; nothing in src/ has this shape.
// Not compiled -- input for the self-test only.

namespace csfix {

struct SimThread
{
    unsigned long credit_ = 0;

    void yieldSlow();
    void accrue(unsigned long cycles);
    unsigned id();
    unsigned long long now();
};

void
SimThread::yieldSlow()
{
    credit_ = 0;
}

void
SimThread::accrue(unsigned long cycles)
{
    credit_ += cycles;
    if (credit_ > 1000)
        yieldSlow(); // legal: skipped while noyield_depth_ > 0
}

struct RaceChecker
{
    void onRemoteQueueAccess(unsigned tid, unsigned long long at,
                             bool atomic);
};

struct NoYield
{
    explicit NoYield(SimThread &t);
};

struct Shard
{
    unsigned long long inbox_head = 0;
    unsigned inbox_count = 0;
    RaceChecker *checker_ = nullptr;

    unsigned long long drainInbox(SimThread &t);
};

unsigned long long
Shard::drainInbox(SimThread &t)
{
    NoYield guard(t);
    if (checker_ != nullptr)
        checker_->onRemoteQueueAccess(t.id(), t.now(), true);
    t.accrue(4);
    const unsigned long long head = inbox_head;
    inbox_head = 0;
    inbox_count = 0;
    return head;
}

} // namespace csfix
