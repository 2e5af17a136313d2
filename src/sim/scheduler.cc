#include "sim/scheduler.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <limits>

#include "base/logging.h"
#include "check/race_checker.h"
#include "sim/fault_injector.h"
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
#include <sanitizer/asan_interface.h>
#endif
#if defined(CREV_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

// The fiber switch (DESIGN.md §14.2). It saves the general-purpose
// registers the SysV ABI makes callee-saved (rbx, rbp, r12-r15) on the
// outgoing stack and keeps rsp in the fiber's slot; the return address
// is already on the stack. The ABI also makes the MXCSR and x87
// control words callee-saved, and a libc context switch also restores
// the signal mask. The switch carries none of them: all fibers run on
// one host thread and nothing in src/ or bench/ changes them, so every
// fiber sees the same values (crev_lint's fiber-state rule keeps it
// so). It does not maintain a CET shadow stack, so scheduler.cc is
// built without CET markings and no binary linking it asks for one
// (src/sim/CMakeLists.txt).
#if !defined(__x86_64__) || defined(__ILP32__) || defined(_WIN32)
#error "fiber switch: x86-64 SysV hosts only (DESIGN.md §14.2)"
#endif

extern "C" {
/** Push the callee-saved registers, store rsp to @p save_sp, load
 *  @p load_sp, pop the registers saved there and return into that
 *  stack. */
void crev_sim_fiber_switch(void **save_sp, void *load_sp);
/** A new fiber's first return target: calls r12 with rbx as its
 *  argument on a 16-byte-aligned stack and never returns. */
void crev_sim_fiber_entry();
}

asm(R"(
    .pushsection .text
    .p2align 4
    .globl crev_sim_fiber_switch
    .hidden crev_sim_fiber_switch
    .type crev_sim_fiber_switch, @function
crev_sim_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r15
    popq %r14
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r14
    popq %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    popq %rbp
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbp
    ret
    .cfi_endproc
    .size crev_sim_fiber_switch, .-crev_sim_fiber_switch

    .p2align 4
    .globl crev_sim_fiber_entry
    .hidden crev_sim_fiber_entry
    .type crev_sim_fiber_entry, @function
crev_sim_fiber_entry:
    .cfi_startproc
    .cfi_undefined %rip
    movq %rbx, %rdi
    call *%r12
    ud2
    .cfi_endproc
    .size crev_sim_fiber_entry, .-crev_sim_fiber_entry
    .popsection
)");

namespace crev::sim {

namespace {

constexpr Cycles kInfinity = std::numeric_limits<Cycles>::max();

/** Usable fiber stack size. Bodies are ordinary workload code; the
 *  generous size costs only address space (pages commit on first
 *  touch). */
constexpr std::size_t kFiberStackBytes = std::size_t{4} << 20;

/** The inaccessible host page below each fiber stack: an overflow
 *  faults instead of running into other host memory. */
std::size_t
stackGuardBytes()
{
    static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return bytes;
}

/** The lowest usable byte of a fiber stack (just above its guard). */
char *
stackBottom(ZeroPages<char> &stack)
{
    return stack.data() + stackGuardBytes();
}

/** crev_sim_fiber_switch's frame, lowest address first: what its
 *  pops and its return consume. */
struct SwitchFrame
{
    void *r15, *r14, *r13, *r12, *rbx, *rbp;
    void *ret;
};

} // namespace

namespace detail {

void
fiberTrampoline(SimThread *t)
{
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
    if (FaultInjector *fi = sched_.injector()) {
        // A stuck/slow core: the blackout is charged before the yield,
        // with no yield of its own, so the whole stall is one opaque
        // interval on this thread, as a firmware excursion would be.
        // coreStall() draws only for an armed nonzero probability, so
        // plans without the domain replay their exact decision streams.
        const Cycles stall = fi->coreStall(*this);
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
    if (trace::Tracer *tr = sched_.tracer())
        tr->record(id_, core_, clock_, trace::EventType::kThreadPark);
    sched_.core_free_at_[core_] = clock_;
    sched_.current_ = nullptr;
    // Return control to the run() driver, which picks the successor.
    sched_.switchFiber(&fiber_sp_, nullptr, true);
    panic("finished fiber resumed");
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

Scheduler::Scheduler(unsigned num_cores, const CostModel &cm,
                     const Attachments &attached)
    : num_cores_(num_cores), cm_(cm), att_(attached),
      core_free_at_(num_cores, 0), core_last_thread_(num_cores, nullptr)
{
    CREV_ASSERT(num_cores > 0 && num_cores <= 32);
    CREV_ASSERT(cm_.quantum > 0);
}

Scheduler::~Scheduler()
{
    // Fibers that never ran (a scheduler built but not run) need no
    // teardown: their stacks are freed with their SimThreads.
#if defined(CREV_ASAN)
    // ASan keeps a region's shadow across munmap, and frames that
    // never returned (a finished fiber's last switch) leave their
    // redzones poisoned: clear them so a later mapping at the same
    // address starts clean.
    for (auto &t : threads_)
        ASAN_UNPOISON_MEMORY_REGION(stackBottom(t->fiber_stack_),
                                    kFiberStackBytes);
#endif
#if defined(CREV_TSAN)
    for (auto &t : threads_)
        __tsan_destroy_fiber(t->tsan_fiber_);
#endif
}

void
Scheduler::switchFiber(void **from, SimThread *to,
                       [[maybe_unused]] bool last)
{
    void *to_sp = to != nullptr ? to->fiber_sp_ : sched_sp_;
#if defined(CREV_ASAN)
    // A finished fiber passes no fake-stack slot, so ASan frees its
    // fake stack; the driver's bounds were learned by finishSwitch.
    void *fake_stack = nullptr;
    __sanitizer_start_switch_fiber(
        last ? nullptr : &fake_stack,
        to != nullptr ? stackBottom(to->fiber_stack_) : driver_stack_,
        to != nullptr ? kFiberStackBytes : driver_stack_size_);
#endif
#if defined(CREV_TSAN)
    __tsan_switch_to_fiber(to != nullptr ? to->tsan_fiber_ : tsan_driver_,
                           0);
#endif
    crev_sim_fiber_switch(from, to_sp);
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
    if (att_.checker != nullptr)
        att_.checker->onThreadSpawn(
            current_ != nullptr ? static_cast<int>(current_->id_) : -1,
            id);
    t->fiber_stack_ = ZeroPages<char>(stackGuardBytes() + kFiberStackBytes);
    CREV_ASSERT(mprotect(t->fiber_stack_.data(), stackGuardBytes(),
                         PROT_NONE) == 0);
    // The first switch into the fiber pops this frame and returns
    // into the entry thunk, which calls the trampoline (r12) on the
    // thread (rbx). The frame ends 16 bytes below the stack top, so
    // the thunk runs with rsp 16-byte aligned, as at a call site, and
    // the zeroed rbp ends a frame-pointer walk there.
    char *top = stackBottom(t->fiber_stack_) + kFiberStackBytes;
    auto *frame = reinterpret_cast<SwitchFrame *>(top - 16) - 1;
    *frame = SwitchFrame{};
    frame->r12 = reinterpret_cast<void *>(&detail::fiberTrampoline);
    frame->rbx = t;
    frame->ret = reinterpret_cast<void *>(&crev_sim_fiber_entry);
    t->fiber_sp_ = frame;
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
    if (att_.tracer != nullptr)
        att_.tracer->record(t->id_, c, t->clock_,
                            trace::EventType::kThreadRun);
    updateYieldHorizon(*t);
    current_ = t;
}

void
Scheduler::handoff(SimThread &self, ThreadStatus new_status)
{
    // A thread may not park inside a NoYield window (DESIGN.md §16):
    // the run-time half of crev_analyze's noyield-reach, covering the
    // calls its call graph cannot resolve.
    CREV_ASSERT(new_status == ThreadStatus::kReady ||
                self.noyield_depth_ == 0);
    self.status_ = new_status;
    ++self.heartbeats_;
    self.last_beat_at_ = self.clock_;
    if (att_.tracer != nullptr)
        att_.tracer->record(self.id_, self.core_, self.clock_,
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
    switchFiber(&self.fiber_sp_, next, false);
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
    if (att_.checker != nullptr && current_ != nullptr)
        att_.checker->onWake(current_->id_, t.id_);
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
    if (att_.tracer != nullptr)
        att_.tracer->record(self.id_, self.core_, begin,
                            trace::EventType::kStwBegin);
    if (att_.checker != nullptr)
        att_.checker->onStwBegin(self.id_);
    self.yield_horizon_ = kInfinity;
    return begin;
}

void
Scheduler::resumeWorld(SimThread &self)
{
    CREV_ASSERT(stw_active_ && stw_owner_ == &self);
    const Cycles end = self.clock_;
    last_stw_end_ = end;
    if (att_.tracer != nullptr)
        att_.tracer->record(self.id_, self.core_, end,
                            trace::EventType::kStwEnd);
    if (att_.checker != nullptr)
        att_.checker->onStwEnd(self.id_);
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
        switchFiber(&sched_sp_, next, false);
    }
}

} // namespace crev::sim
