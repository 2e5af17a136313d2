#include "sim/scheduler.h"

#include <algorithm>
#include <limits>

#include "base/logging.h"
#include "check/race_checker.h"
#include "trace/trace.h"

// Sanitizer fiber annotations (DESIGN.md §14.2); no-ops otherwise.
#if defined(__SANITIZE_ADDRESS__)
#define CREV_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CREV_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(CREV_ASAN)
#define CREV_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(CREV_TSAN)
#define CREV_TSAN 1
#endif
#endif
#if defined(CREV_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CREV_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace crev::sim {

namespace {

constexpr Cycles kInfinity = std::numeric_limits<Cycles>::max();

/** Fiber stack size. Bodies are ordinary workload code; the generous
 *  size costs only address space (pages commit on first touch). */
constexpr std::size_t kFiberStackBytes = std::size_t{4} << 20;

} // namespace

namespace detail {

void
fiberTrampoline(unsigned hi, unsigned lo)
{
    // makecontext passes only ints; the SimThread pointer travels as
    // two 32-bit halves.
    auto *t = reinterpret_cast<SimThread *>(
        (static_cast<std::uintptr_t>(hi) << 32) |
        static_cast<std::uintptr_t>(lo));
    t->fiberMain();
}

} // namespace detail

// ---------------------------------------------------------------------
// SimThread
// ---------------------------------------------------------------------

SimThread::SimThread(Scheduler &sched, unsigned id, std::string name,
                     std::uint32_t core_mask, bool daemon,
                     std::function<void(SimThread &)> body)
    : sched_(sched), id_(id), name_(std::move(name)),
      core_mask_(core_mask), daemon_(daemon), body_(std::move(body)),
      regs_(kNumRegs)
{
    CREV_ASSERT(core_mask_ != 0);
}

cap::Capability &
SimThread::reg(unsigned i)
{
    CREV_ASSERT(i < regs_.size());
    return regs_[i];
}

const cap::Capability &
SimThread::reg(unsigned i) const
{
    CREV_ASSERT(i < regs_.size());
    return regs_[i];
}

void
SimThread::yieldSlow()
{
    if (sched_.stall_hook_) {
        // A stuck/slow core: the blackout is charged before the yield
        // so the whole stall is one opaque interval on this thread.
        const Cycles stall = sched_.stall_hook_(*this);
        if (stall > 0) {
            clock_ += stall;
            busy_ += stall;
        }
    }
    sched_.handoff(*this, ThreadStatus::kReady);
}

void
SimThread::yieldNow()
{
    if (noyield_depth_ == 0)
        sched_.handoff(*this, ThreadStatus::kReady);
}

void
SimThread::sleepUntil(Cycles t)
{
    if (t <= clock_)
        return;
    wake_time_ = t;
    sched_.handoff(*this, ThreadStatus::kSleeping);
}

void
SimThread::fiberMain()
{
    // Entered on the first grant; status_ is already kRunning.
    sched_.finishSwitch(nullptr);
    try {
        body_(*this);
    } catch (const std::exception &e) {
        // A simulated fault escaped the workload body: the simulated
        // thread dies (as a signal would kill it); the machine runs on.
        warn("thread %s terminated by: %s", name_.c_str(), e.what());
    }
    status_ = ThreadStatus::kDone;
    if (sched_.tracer_ != nullptr)
        sched_.tracer_->record(id_, core_, clock_,
                               trace::EventType::kThreadPark);
    sched_.core_free_at_[core_] = clock_;
    sched_.current_ = nullptr;
    // Return control to the run() driver, which picks the successor.
    sched_.switchFiber(&fiber_ctx_, nullptr, true);
    panic("finished fiber resumed");
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

Scheduler::Scheduler(unsigned num_cores, const CostModel &cm)
    : num_cores_(num_cores), cm_(cm), core_free_at_(num_cores, 0),
      core_last_thread_(num_cores, nullptr)
{
    CREV_ASSERT(num_cores > 0 && num_cores <= 32);
    CREV_ASSERT(cm_.quantum > 0);
}

Scheduler::~Scheduler()
{
    // Fibers that never ran (a scheduler built but not run) need no
    // teardown: their stacks are freed with their SimThreads.
#if defined(CREV_TSAN)
    for (auto &t : threads_)
        __tsan_destroy_fiber(t->tsan_fiber_);
#endif
}

void
Scheduler::switchFiber(ucontext_t *from, SimThread *to,
                       [[maybe_unused]] bool last)
{
    ucontext_t *to_ctx = to != nullptr ? &to->fiber_ctx_ : &sched_ctx_;
#if defined(CREV_ASAN)
    // A finished fiber passes no fake-stack slot, so ASan frees its
    // fake stack; the driver's bounds were learned by finishSwitch.
    void *fake_stack = nullptr;
    __sanitizer_start_switch_fiber(
        last ? nullptr : &fake_stack,
        to != nullptr ? to->fiber_stack_.get() : driver_stack_,
        to != nullptr ? kFiberStackBytes : driver_stack_size_);
#endif
#if defined(CREV_TSAN)
    __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber_ : tsan_driver_,
                           0);
#endif
    swapcontext(from, to_ctx);
#if defined(CREV_ASAN)
    finishSwitch(fake_stack);
#endif
}

void
Scheduler::finishSwitch([[maybe_unused]] void *fake_stack)
{
#if defined(CREV_ASAN)
    // The first switch of a run always leaves the driver, so the
    // first finish reports the driver's stack.
    const void *from_stack = nullptr;
    std::size_t from_size = 0;
    __sanitizer_finish_switch_fiber(fake_stack, &from_stack, &from_size);
    if (driver_stack_ == nullptr) {
        driver_stack_ = from_stack;
        driver_stack_size_ = from_size;
    }
#endif
}

SimThread *
Scheduler::spawn(std::string name, std::uint32_t core_mask,
                 std::function<void(SimThread &)> body, bool daemon)
{
    const auto valid =
        static_cast<std::uint32_t>((std::uint64_t{1} << num_cores_) - 1);
    CREV_ASSERT((core_mask & valid) == core_mask);
    const auto id = static_cast<unsigned>(threads_.size());
    threads_.emplace_back(new SimThread(*this, id, std::move(name),
                                        core_mask, daemon,
                                        std::move(body)));
    SimThread *t = threads_.back().get();
    if (current_ != nullptr)
        t->clock_ = current_->clock_;
    if (checker_ != nullptr)
        checker_->onThreadSpawn(
            current_ != nullptr ? static_cast<int>(current_->id_) : -1,
            id);
    t->fiber_stack_ = std::make_unique<char[]>(kFiberStackBytes);
    CREV_ASSERT(getcontext(&t->fiber_ctx_) == 0);
    t->fiber_ctx_.uc_stack.ss_sp = t->fiber_stack_.get();
    t->fiber_ctx_.uc_stack.ss_size = kFiberStackBytes;
    t->fiber_ctx_.uc_link = nullptr;
    const auto p = reinterpret_cast<std::uintptr_t>(t);
    makecontext(&t->fiber_ctx_,
                reinterpret_cast<void (*)()>(detail::fiberTrampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xFFFFFFFFu));
#if defined(CREV_TSAN)
    t->tsan_fiber_ = __tsan_create_fiber(0);
#endif
    return t;
}

void
Scheduler::setQuantumScale(SimThread &t, double scale)
{
    CREV_ASSERT(scale > 0);
    t.quantum_scale_ = scale;
}

bool
Scheduler::stwOwnedBy(const SimThread &t) const
{
    return stw_active_ && stw_owner_ == &t;
}

std::vector<unsigned>
Scheduler::stalledThreads(Cycles now, Cycles horizon) const
{
    std::vector<unsigned> out;
    for (const auto &tp : threads_) {
        if (tp->status_ == ThreadStatus::kDone)
            continue;
        if (tp->heartbeats_ == 0 && tp->clock_ == 0)
            continue; // never scheduled yet
        if (tp->last_beat_at_ + horizon < now)
            out.push_back(tp->id_);
    }
    return out;
}

bool
Scheduler::finished(const SimThread &t) const
{
    return t.status_ == ThreadStatus::kDone;
}

Cycles
Scheduler::maxClock() const
{
    Cycles m = 0;
    for (const auto &t : threads_)
        m = std::max(m, t->clock_);
    return m;
}

SimThread *
Scheduler::chooseNext()
{
    // Pick the schedulable thread with the smallest
    // effective start time; promote sleepers whose wake time arrived.
    SimThread *best = nullptr;
    Cycles best_est = kInfinity;
    unsigned best_core = 0;

    for (auto &tp : threads_) {
        SimThread *t = tp.get();
        Cycles base;
        switch (t->status_) {
          case ThreadStatus::kReady:
            base = t->clock_;
            break;
          case ThreadStatus::kSleeping: {
            base = t->wake_time_;
            // A sleeper whose wake time fell inside the last STW window
            // is held by the kernel until the world restarts.
            if (base >= last_stw_begin_ && base < last_stw_end_)
                base = last_stw_end_;
            break;
          }
          default:
            continue;
        }
        if (stw_active_ && t != stw_owner_)
            continue;

        // Best core for this thread first.
        Cycles t_est = 0;
        unsigned t_core = 0;
        bool have_core = false;
        for (unsigned c = 0; c < num_cores_; ++c) {
            if (!(t->core_mask_ & (1u << c)))
                continue;
            const Cycles est = std::max(core_free_at_[c], base);
            if (!have_core || est < t_est) {
                t_est = est;
                t_core = c;
                have_core = true;
            }
        }
        if (!have_core)
            continue;
        // Tie-break by the thread's own clock (round-robin fairness
        // on a shared core), then by id (determinism).
        const bool better =
            best == nullptr || t_est < best_est ||
            (t_est == best_est &&
             (t->clock_ < best->clock_ ||
              (t->clock_ == best->clock_ && t->id_ < best->id_)));
        if (better) {
            best = t;
            best_est = t_est;
            best_core = t_core;
        }
    }

    if (best) {
        if (best->status_ == ThreadStatus::kSleeping) {
            Cycles w = best->wake_time_;
            if (w >= last_stw_begin_ && w < last_stw_end_)
                w = last_stw_end_;
            best->clock_ = std::max(best->clock_, w);
        }
        best->status_ = ThreadStatus::kReady;
        best->clock_ = std::max(best->clock_, best_est);
        best->core_ = best_core;
    }
    return best;
}

void
Scheduler::updateYieldHorizon(SimThread &running)
{
    // The horizon is the earlier of the preemption
    // quantum and the point where another schedulable thread would fall
    // more than yield_slack behind us.
    Cycles horizon =
        running.clock_ +
        static_cast<Cycles>(static_cast<double>(cm_.quantum) *
                            running.quantum_scale_);
    for (auto &tp : threads_) {
        SimThread *t = tp.get();
        if (t == &running)
            continue;
        Cycles base;
        if (t->status_ == ThreadStatus::kReady) {
            base = t->clock_;
        } else if (t->status_ == ThreadStatus::kSleeping) {
            base = t->wake_time_;
        } else {
            continue;
        }
        if (stw_active_ && t != stw_owner_)
            continue;
        horizon = std::min(horizon, base + cm_.yield_slack);
    }
    running.yield_horizon_ = std::max(horizon, running.clock_ + 1);
}

void
Scheduler::grant(SimThread *t)
{
    const unsigned c = t->core_;
    t->clock_ = std::max(t->clock_, core_free_at_[c]);
    if (core_last_thread_[c] != t && core_last_thread_[c] != nullptr) {
        t->clock_ += cm_.ctx_switch;
        t->busy_ += cm_.ctx_switch;
    }
    core_last_thread_[c] = t;
    t->status_ = ThreadStatus::kRunning;
    if (tracer_ != nullptr)
        tracer_->record(t->id_, c, t->clock_,
                        trace::EventType::kThreadRun);
    updateYieldHorizon(*t);
    current_ = t;
}

void
Scheduler::handoff(SimThread &self, ThreadStatus new_status)
{
    self.status_ = new_status;
    ++self.heartbeats_;
    self.last_beat_at_ = self.clock_;
    if (tracer_ != nullptr)
        tracer_->record(self.id_, self.core_, self.clock_,
                        new_status == ThreadStatus::kReady
                            ? trace::EventType::kThreadPreempt
                            : trace::EventType::kThreadPark);
    core_free_at_[self.core_] = self.clock_;

    // Direct switch: pick the successor here instead of bouncing
    // through the scheduler loop (halves stack switches).
    SimThread *next = chooseNext();
    if (next == &self) {
        // Still the best candidate: continue without a switch.
        grant(next);
        return;
    }
    // Switch directly into the successor fiber, or back to the run()
    // driver when nothing is runnable (shutdown, deadlock detection).
    // When this fiber is granted again, control resumes right after
    // the switch with status_ == kRunning already set by the grantor.
    if (next != nullptr)
        grant(next);
    else
        current_ = nullptr;
    switchFiber(&self.fiber_ctx_, next, false);
}

void
Scheduler::block(SimThread &self)
{
    handoff(self, ThreadStatus::kBlocked);
}

void
Scheduler::applyWake(SimThread &t, Cycles at)
{
    // t is kBlocked.
    if (checker_ != nullptr && current_ != nullptr)
        checker_->onWake(current_->id_, t.id_);
    t.status_ = ThreadStatus::kReady;
    t.clock_ = std::max({t.clock_, at, last_stw_end_ <= at ? Cycles{0}
                                                           : last_stw_end_});
    if (current_ != nullptr)
        current_->yield_horizon_ =
            std::min(current_->yield_horizon_, t.clock_ + cm_.yield_slack);
}

void
Scheduler::wake(SimThread &t, Cycles at)
{
    if (t.status_ == ThreadStatus::kBlocked)
        applyWake(t, at);
}

void
Scheduler::wakeMany(SimThread *const *ts, std::size_t n, Cycles at)
{
    for (std::size_t i = 0; i < n; ++i)
        if (ts[i]->status_ == ThreadStatus::kBlocked)
            applyWake(*ts[i], at);
}

Cycles
Scheduler::stopTheWorld(SimThread &self)
{
    // Drain threads with smaller clocks first so the park times below
    // are accurate.
    self.yieldNow();

    CREV_ASSERT(!stw_active_);
    stw_active_ = true;
    stw_owner_ = &self;

    Cycles begin = self.clock_;
    for (auto &tp : threads_)
        if (tp.get() != &self && tp->status_ == ThreadStatus::kReady)
            begin = std::max(begin, tp->clock_);
    begin += cm_.ipi * num_cores_;
    self.busy_ += begin - self.clock_;
    self.clock_ = begin;
    last_stw_begin_ = begin;
    if (tracer_ != nullptr)
        tracer_->record(self.id_, self.core_, begin,
                        trace::EventType::kStwBegin);
    if (checker_ != nullptr)
        checker_->onStwBegin(self.id_);
    self.yield_horizon_ = kInfinity;
    return begin;
}

void
Scheduler::resumeWorld(SimThread &self)
{
    CREV_ASSERT(stw_active_ && stw_owner_ == &self);
    const Cycles end = self.clock_;
    last_stw_end_ = end;
    if (tracer_ != nullptr)
        tracer_->record(self.id_, self.core_, end,
                        trace::EventType::kStwEnd);
    if (checker_ != nullptr)
        checker_->onStwEnd(self.id_);
    stw_active_ = false;
    stw_owner_ = nullptr;
    for (auto &tp : threads_)
        if (tp.get() != &self && tp->status_ == ThreadStatus::kReady)
            tp->clock_ = std::max(tp->clock_, end);
    updateYieldHorizon(self);
}

void
Scheduler::run()
{
    CREV_ASSERT(!started_);
    started_ = true;
#if defined(CREV_TSAN)
    tsan_driver_ = __tsan_get_current_fiber();
#endif

    for (;;) {
        // Initiate shutdown once every non-daemon thread has finished.
        bool user_alive = false;
        bool any_alive = false;
        for (auto &tp : threads_) {
            if (tp->status_ != ThreadStatus::kDone) {
                any_alive = true;
                if (!tp->daemon_)
                    user_alive = true;
            }
        }
        if (!any_alive)
            break;
        if (!user_alive) {
            // Repeated every iteration: a daemon may block once more
            // while draining; its contract is to exit once it observes
            // shuttingDown().
            shutting_down_ = true;
            for (auto &tp : threads_) {
                if (tp->status_ == ThreadStatus::kBlocked ||
                    tp->status_ == ThreadStatus::kSleeping) {
                    tp->status_ = ThreadStatus::kReady;
                }
            }
        }

        SimThread *next = chooseNext();
        if (next == nullptr) {
            panic("scheduler deadlock: threads alive but none runnable");
        }
        grant(next);
        // Fibers hand off among themselves without returning here;
        // control comes back (with current_ == nullptr) only when a
        // fiber finishes or none is runnable.
        switchFiber(&sched_ctx_, next, false);
    }
}

} // namespace crev::sim
