/**
 * @file
 * The simulation-aware race detector (DESIGN.md §11).
 *
 * A dynamic lockset + happens-before checker woven into the
 * deterministic scheduler. Like the tracer, it is a pure observer: no
 * hook accrues simulated cycles or yields, so RunMetrics are
 * bit-identical with the checker on or off (tests/check_test.cpp
 * holds this for every strategy).
 *
 * The happens-before order is built from vector clocks over the
 * scheduler's real synchronisation edges:
 *
 *   - spawn:          parent  → child
 *   - wake:           waker   → wakee (SimMutex unlock, SimEvent
 *                     notify — every cross-thread wake funnels through
 *                     Scheduler::wake)
 *   - mutex release → next acquire (per-mutex release clock)
 *   - STW begin:      every thread → the STW owner
 *   - STW end:        the STW owner → every thread
 *
 * On top of that order, declared shared-state domains carry rules
 * tuned to this codebase's protocols (each one silent on the clean
 * tree, each one exercised by a seeded injected race in the tests):
 *
 *   pte-unlocked-publish   a software PTE publish (CLG/trap/dirty
 *                          rewrite) without the pmap lock and outside
 *                          stop-the-world ownership
 *   pte-unordered-publish  two publishes of the same page with no
 *                          happens-before edge between them
 *   pte-teardown-during-epoch
 *                          PTE teardown (munmap/release) while the
 *                          epoch counter is odd, without the pmap
 *                          lock or STW ownership (§4.3 exclusion)
 *   gen-flip-outside-stw   a core-generation flip while the world is
 *                          running
 *   shadow-rmw-race        a second thread writing or probing a
 *                          shadow-bitmap byte inside another thread's
 *                          open read-modify-write window
 *   quarantine-unlocked-access
 *                          quarantine buffer mutation without the
 *                          heap (shard) lock
 *   remote-queue-nonatomic-access
 *                          a remote-dealloc inbox splice or detach
 *                          outside a NoYield window (senders push
 *                          without the owner's shard lock; the
 *                          modeled MPSC exchange must be atomic)
 *   epoch-order-violation  a quarantine buffer released before its
 *                          +2/+3 epoch target
 *   stw-scan-outside-stw   register-file / kernel-hoard scanning
 *                          while mutators may run
 *
 * Deliberately *not* flagged (documented benign races): optimistic
 * PTE reads that re-verify under the lock (reloaded.cc), hardware-DBM
 * cap-dirty updates racing publishes (§4.2), and demand-zero fault
 * service. Only kPublish/kTeardown-class software writes enter the
 * happens-before conflict check.
 *
 * Reports are virtual-time stamped and appended in execution order;
 * because the simulation is deterministic, the full report is
 * byte-identical across same-seed runs and exports next to the
 * Chrome trace (Machine::checkReportJson()).
 */

#ifndef CREV_CHECK_RACE_CHECKER_H_
#define CREV_CHECK_RACE_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/types.h"

namespace crev::check {

/** One rule violation, stamped with the observing thread's virtual
 *  time. */
struct Violation
{
    std::string rule;   //!< machine-readable rule id
    std::string detail; //!< human-readable description
    unsigned tid = 0;   //!< thread that performed the racy access
    Cycles at = 0;      //!< virtual time of the access
    Addr addr = 0;      //!< page / shadow byte / 0 when n/a
};

/** A vector clock over simulated thread ids (dense, lazily grown). */
class VectorClock
{
  public:
    void tick(unsigned tid);
    void join(const VectorClock &o);
    std::uint64_t at(unsigned tid) const;
    /** Pointwise this ≤ o: every event in *this happened before o. */
    bool leq(const VectorClock &o) const;

  private:
    std::vector<std::uint64_t> v_;
};

/**
 * The race detector. One instance per Machine, attached via
 * Scheduler::setChecker() and the components' setChecker() methods;
 * all hooks run on the simulated thread that holds the execution
 * token, so every hook runs on the machine's one host thread.
 */
class RaceChecker
{
  public:
    // --- scheduler edges ---
    void onThreadSpawn(int parent_tid, unsigned child_tid);
    void onWake(unsigned waker, unsigned wakee);
    void onStwBegin(unsigned owner);
    void onStwEnd(unsigned owner);

    // --- SimMutex instrumentation ---
    void onMutexAcquire(unsigned tid, const void *m);
    void onMutexRelease(unsigned tid, const void *m);
    /** Give a lock a name for reports ("pmap", "heap"). */
    void nameLock(const void *m, const char *name);

    // --- declared shared-state domains ---
    /** Epoch counter advanced to @p value. */
    void onEpochAdvance(unsigned tid, Cycles at, std::uint64_t value);
    /** Software PTE publish; @p disciplined = pmap held or STW owned. */
    void onPtePublish(unsigned tid, Cycles at, Addr page,
                      bool disciplined);
    /** PTE teardown; @p locked = pmap held or STW owned. */
    void onPteTeardown(unsigned tid, Cycles at, Addr page, bool locked);
    /** Core load-generation flip (must be world-stopped). */
    void onGenFlip(unsigned tid, Cycles at);
    /** Shadow-bitmap partial-byte RMW window open/close. */
    void onShadowRmwBegin(unsigned tid, Cycles at, Addr byte_va);
    void onShadowRmwEnd(unsigned tid, Addr byte_va);
    /** Bulk shadow write of @p bytes bytes at @p byte_va. */
    void onShadowWrite(unsigned tid, Cycles at, Addr byte_va,
                       Addr bytes);
    /** Shadow probe of one byte. */
    void onShadowProbe(unsigned tid, Cycles at, Addr byte_va);
    /** Quarantine buffer access; @p locked = heap lock held. */
    void onQuarantineAccess(unsigned tid, Cycles at, bool locked);
    /** Drain of the unmap->reap hand-off queue. §4.3 quiesces munmap
     *  (and hence the hand-off) while a revocation epoch is in
     *  flight, so the drain must observe an even epoch counter;
     *  @p shutting_down excuses the final drain during teardown. */
    void onMappingHandoff(unsigned tid, Cycles at, bool shutting_down);
    /** Remote-dealloc queue splice/detach; @p atomic = inside a
     *  NoYield window (the modeled lock-free MPSC exchange — the
     *  inbox is mutated by senders that do NOT hold the owner's
     *  shard lock, so atomicity of the exchange is the invariant). */
    void onRemoteQueueAccess(unsigned tid, Cycles at, bool atomic);
    /** Quarantine buffer released whose target was @p target while
     *  the counter read @p counter. */
    void onDequarantineRelease(unsigned tid, Cycles at,
                               std::uint64_t target,
                               std::uint64_t counter);
    /** Register-file / kernel-hoard scan (STW-only operation). */
    void onStwScan(unsigned tid, Cycles at);

    // --- results ---
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }
    bool clean() const { return violations_.empty(); }
    /** Violations dropped past the report cap. */
    std::uint64_t suppressed() const { return suppressed_; }

    /**
     * Deterministic JSON report (virtual-time stamped, execution
     * order), exported next to the Chrome trace.
     */
    std::string reportJson() const;

  private:
    struct ThreadState
    {
        VectorClock vc;
        std::vector<const void *> locks; //!< lockset, LIFO
    };
    struct LastPublish
    {
        unsigned tid = 0;
        Cycles at = 0;
        VectorClock vc;
    };

    static constexpr std::size_t kMaxViolations = 1000;

    ThreadState &thread(unsigned tid);
    bool holds(unsigned tid, const void *m) const;
    std::string lockNames(unsigned tid) const;
    void report(const char *rule, unsigned tid, Cycles at, Addr addr,
                std::string detail);

    std::vector<ThreadState> threads_;
    std::map<const void *, VectorClock> mutex_release_;
    std::map<const void *, std::string> lock_names_;
    std::map<Addr, LastPublish> last_publish_;
    std::map<Addr, unsigned> open_rmw_; //!< shadow byte → owner tid
    std::uint64_t epoch_value_ = 0;
    int stw_owner_ = -1;
    std::vector<Violation> violations_;
    std::uint64_t suppressed_ = 0;
};

} // namespace crev::check

#endif // CREV_CHECK_RACE_CHECKER_H_
