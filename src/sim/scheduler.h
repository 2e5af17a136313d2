/**
 * @file
 * Deterministic cooperative virtual-time scheduler.
 *
 * Exactly one simulated thread executes at a time: the scheduler hands
 * a token to the runnable thread with the smallest virtual clock
 * (conservative discrete-event execution). Simulated threads are
 * pinned to cores via a core mask; threads sharing a core are
 * timesliced with a preemption quantum. Because scheduling decisions
 * depend only on virtual clocks, entire runs are deterministic and
 * race-free, yet workload bodies are written as ordinary sequential
 * C++.
 *
 * Simulated threads run as fibers on the host thread that calls run(),
 * so a token handoff is a user-space stack switch and one simulated
 * machine needs one host thread. The scheduler owns that switch: a
 * few instructions that swap the callee-saved registers and the stack
 * pointer, with no system call (x86-64 SysV only; DESIGN.md §14.2).
 * Cross-core wakes apply at the instant they are posted, in call
 * order. Under ASan and TSan the stack switches are announced to the
 * sanitizer through its fiber API, so the sanitizer jobs check the
 * same execution path as every release run.
 *
 * The scheduler also provides the stop-the-world service used by the
 * revokers, through the scoped StoppedWorld only: parked threads'
 * clocks are advanced to the STW end time, while threads sleeping
 * past the window are unaffected — reproducing the paper's
 * observation that STW phases can hide inside idle time (§5.2
 * Discussion).
 */

#ifndef CREV_SIM_SCHEDULER_H_
#define CREV_SIM_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/types.h"
#include "base/zero_pages.h"
#include "cap/capability.h"
#include "sim/cost_model.h"

namespace crev::trace {
class Tracer;
}

namespace crev::check {
class RaceChecker;
class SafetyOracle;
}

namespace crev::revoker {
class RecoveryManager;
}

namespace crev::sim {

class FaultInjector;
class Scheduler;
class SimThread;

/**
 * The machine's attachments, each null when off: the three off-clock
 * observers (tracer, race checker, safety oracle) and the two chaos
 * components (recovery manager, fault injector). They are fixed when
 * the scheduler is constructed; every component reads them through
 * the SimThread or Scheduler it already holds (DESIGN.md §10.2).
 */
struct Attachments
{
    trace::Tracer *tracer = nullptr;
    check::RaceChecker *checker = nullptr;
    check::SafetyOracle *oracle = nullptr;
    revoker::RecoveryManager *recovery = nullptr;
    FaultInjector *injector = nullptr;
};

namespace detail {
/** A fiber's first call, made by the entry thunk (internal). */
void fiberTrampoline(SimThread *t);
} // namespace detail

/** Lifecycle states of a simulated thread. */
enum class ThreadStatus {
    kReady,    //!< runnable, waiting for the token
    kRunning,  //!< holds the token
    kSleeping, //!< waiting for virtual time to pass
    kBlocked,  //!< waiting for an explicit wake()
    kDone,     //!< body returned
};

/**
 * A simulated thread: a virtual clock, a capability register file, and
 * a pinned set of cores. Workload code receives a reference and calls
 * accrue()/sleep()/reg() as it executes.
 */
class SimThread
{
  public:
    static constexpr unsigned kNumRegs = 32;

    SimThread(const SimThread &) = delete;
    SimThread &operator=(const SimThread &) = delete;

    const std::string &name() const { return name_; }
    unsigned id() const { return id_; }

    /** Core the thread is currently scheduled on. */
    unsigned core() const { return core_; }

    /** Current virtual time of this thread. */
    Cycles now() const { return clock_; }

    /** Cycles spent executing (excludes sleep and CPU wait). */
    Cycles busyCycles() const { return busy_; }

    /** Scheduling events this thread has passed through (heartbeat
     *  counter; feeds the stall detector). */
    std::uint64_t heartbeats() const { return heartbeats_; }
    /** Virtual time of the last heartbeat. */
    Cycles lastBeatAt() const { return last_beat_at_; }

    /**
     * Account @p c cycles of work. May hand the token to another
     * thread if this one has run past its yield horizon.
     */
    void
    accrue(Cycles c)
    {
        clock_ += c;
        busy_ += c;
        if (clock_ >= yield_horizon_ && noyield_depth_ == 0)
            yieldSlow();
    }

    /** Accrue without permitting a yield (critical sections). */
    void
    accrueNoYield(Cycles c)
    {
        clock_ += c;
        busy_ += c;
    }

    /** Explicit scheduling point (e.g. an idle server loop). */
    void yieldNow();

    /** Sleep until virtual time @p t (no CPU consumed). */
    void sleepUntil(Cycles t);
    /** Sleep for @p dt cycles. */
    void sleep(Cycles dt) { sleepUntil(clock_ + dt); }

    /** Capability register file (scanned during STW phases). */
    cap::Capability &reg(unsigned i);
    const cap::Capability &reg(unsigned i) const;

    /** Whole register file, for the revoker's STW scan. */
    std::vector<cap::Capability> &registerFile() { return regs_; }

    /** RAII guard suppressing yields (virtual critical section). */
    class NoYield
    {
      public:
        explicit NoYield(SimThread &t) : t_(t) { ++t_.noyield_depth_; }
        ~NoYield() { --t_.noyield_depth_; }

      private:
        SimThread &t_;
    };

    Scheduler &scheduler() { return sched_; }

  private:
    friend class Scheduler;
    friend void detail::fiberTrampoline(SimThread *t);

    SimThread(Scheduler &sched, unsigned id, std::string name,
              std::uint32_t core_mask, bool daemon,
              std::function<void(SimThread &)> body);

    void yieldSlow();
    /** Fiber entry (reached on the first grant): run the body, mark
     *  the thread done and switch back to the run() driver. */
    void fiberMain();

    Scheduler &sched_;
    const unsigned id_;
    const std::string name_;
    const std::uint32_t core_mask_;
    const bool daemon_;
    std::function<void(SimThread &)> body_;

    // --- state below is written only by this fiber while it holds the
    // token, or by the scheduler while the thread is parked ---
    Cycles clock_ = 0;
    Cycles busy_ = 0;
    std::uint64_t heartbeats_ = 0;
    Cycles last_beat_at_ = 0;
    Cycles yield_horizon_ = 0;
    Cycles wake_time_ = 0; //!< for kSleeping
    unsigned core_ = 0;
    int noyield_depth_ = 0;
    ThreadStatus status_ = ThreadStatus::kReady;
    /** Relative preemption quantum scale (<1 shortens; §7.7 knob). */
    double quantum_scale_ = 1.0;

    std::vector<cap::Capability> regs_;
    /** Saved stack pointer while parked (the switch's frame is on
     *  top of it). */
    void *fiber_sp_ = nullptr;
    /** Guard page, then the usable stack (DESIGN.md §14.2). */
    ZeroPages<char> fiber_stack_;
    /** TSan's context for this fiber (null outside TSan builds). */
    void *tsan_fiber_ = nullptr;
};

/**
 * The scheduler: owns all simulated threads and the single execution
 * token (see the file comment).
 */
class Scheduler
{
  public:
    Scheduler(unsigned num_cores, const CostModel &cm,
              const Attachments &attached = {});
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Create a simulated thread pinned to the cores in @p core_mask.
     * Daemon threads (the revoker) do not keep the machine alive: when
     * every non-daemon thread finishes, shuttingDown() becomes true
     * and blocked daemons are woken to exit.
     */
    SimThread *spawn(std::string name, std::uint32_t core_mask,
                     std::function<void(SimThread &)> body,
                     bool daemon = false);

    /** Run until all non-daemon threads complete and every daemon has
     *  exited. */
    void run();

    /** Block the calling thread until wake()d. */
    void block(SimThread &self);

    /**
     * Make @p t runnable no earlier than virtual time @p at (callers
     * pass their own now()). No-op if @p t is not blocked.
     */
    void wake(SimThread &t, Cycles at);

    /** Wake a batch of threads at once, in call order. */
    void wakeMany(SimThread *const *ts, std::size_t n, Cycles at);

    /** True once all non-daemon threads have finished. */
    bool shuttingDown() const { return shutting_down_; }

    /**
     * Whether @p t's body has returned. The epoch watchdog uses this
     * to detect sweeper threads that died mid-epoch.
     */
    bool finished(const SimThread &t) const;

    /** All threads ever spawned (the revoker scans register files). */
    const std::vector<std::unique_ptr<SimThread>> &threads() const
    {
        return threads_;
    }

    /** Largest virtual clock across all threads (wall-clock metric). */
    Cycles maxClock() const;

    const CostModel &costs() const { return cm_; }
    unsigned numCores() const { return num_cores_; }

    /** Always true: simulated threads run as fibers. Only perfbench/
     *  still reads it. */
    static constexpr bool fibers() { return true; }
    /** Always 1: one host thread drives the committing slice. Only
     *  perfbench/ still reads it. */
    static constexpr unsigned laneCount() { return 1; }

    /** Set a thread's preemption-quantum scale (§7.7 tuning knob). */
    void setQuantumScale(SimThread &t, double scale);

    /**
     * The attachments (null = off). The tracer, race checker and
     * oracle are off-clock observers: no simulated cycles, no yields,
     * so attaching one cannot perturb a run (DESIGN.md §10, §11).
     */
    trace::Tracer *tracer() const { return att_.tracer; }
    check::RaceChecker *checker() const { return att_.checker; }
    check::SafetyOracle *oracle() const { return att_.oracle; }
    revoker::RecoveryManager *recovery() const { return att_.recovery; }
    /** With an injector attached, a thread's core may freeze for
     *  FaultInjector::coreStall() cycles at each yield point. */
    FaultInjector *injector() const { return att_.injector; }

    /** Whether @p t currently owns an active stop-the-world window. */
    bool stwOwnedBy(const SimThread &t) const;

    /**
     * Stall detector: ids of threads that are not done but have not
     * passed a scheduling event since @p now - @p horizon (their
     * heartbeat counter stopped while virtual time moved on). The
     * watchdog samples this while an epoch is overdue.
     */
    std::vector<unsigned> stalledThreads(Cycles now,
                                         Cycles horizon) const;

  private:
    friend class SimThread;
    friend class StoppedWorld;

    /**
     * Begin a stop-the-world phase on behalf of @p self. Returns the
     * STW begin time. Only StoppedWorld calls this pair, so every
     * stopped world is resumed and holds a proof of itself.
     */
    Cycles stopTheWorld(SimThread &self);
    /** End the stop-the-world phase; parked threads resume at stw end. */
    void resumeWorld(SimThread &self);

    /** Pick the next thread to grant; nullptr if none runnable. */
    SimThread *chooseNext();
    /** Grant the token to @p t (scheduler loop side). */
    void grant(SimThread *t);
    /** Called by a running thread to return the token. */
    void handoff(SimThread &self, ThreadStatus new_status);
    /** Recompute a running thread's yield horizon hint. */
    void updateYieldHorizon(SimThread &running);
    /** Apply one wake's clock clamp + horizon shrink. */
    void applyWake(SimThread &t, Cycles at);
    /**
     * Switch stacks from @p from to @p to's fiber (nullptr = the run()
     * driver), announcing the switch to ASan/TSan. @p last marks a
     * finished fiber's final exit, whose stack never resumes.
     */
    void switchFiber(void **from, SimThread *to, bool last);
    /** Complete a switch on the resumed stack (ASan bookkeeping). */
    void finishSwitch(void *fake_stack);

    const unsigned num_cores_;
    const CostModel cm_;
    /** The run() driver's saved stack pointer, resumed when no fiber
     *  is runnable. */
    void *sched_sp_ = nullptr;
    /** The driver's stack bounds (learned on the first switch) and
     *  TSan context (taken in run()); used only under the sanitizers. */
    const void *driver_stack_ = nullptr;
    std::size_t driver_stack_size_ = 0;
    void *tsan_driver_ = nullptr;

    const Attachments att_;

    std::vector<std::unique_ptr<SimThread>> threads_;
    SimThread *current_ = nullptr;
    bool started_ = false;
    bool shutting_down_ = false;

    // Stop-the-world state.
    bool stw_active_ = false;
    SimThread *stw_owner_ = nullptr;
    Cycles last_stw_begin_ = 0;
    Cycles last_stw_end_ = 0;

    // Per-core timeline: when the core's last slice ended and who ran.
    std::vector<Cycles> core_free_at_;
    std::vector<SimThread *> core_last_thread_;
};

/**
 * One stop-the-world phase, scoped: construction stops the world on
 * behalf of @p self (the caller then does its world-stopped work,
 * accruing cycles), destruction resumes it. It is the only way to
 * stop the world, so a reference to one proves the world is stopped:
 * the load-generation flip demands it (paper §4.1, DESIGN.md §16).
 */
class StoppedWorld
{
  public:
    explicit StoppedWorld(SimThread &self) : self_(self)
    {
        begin_ = self.scheduler().stopTheWorld(self);
    }
    ~StoppedWorld() { self_.scheduler().resumeWorld(self_); }
    StoppedWorld(const StoppedWorld &) = delete;
    StoppedWorld &operator=(const StoppedWorld &) = delete;

    /** The instant the world stopped. */
    Cycles begin() const { return begin_; }

  private:
    SimThread &self_;
    Cycles begin_ = 0;
};

} // namespace crev::sim

#endif // CREV_SIM_SCHEDULER_H_
