/**
 * @file
 * Tests for the deterministic cooperative scheduler: virtual-time
 * ordering, core contention, sleep, blocking, stop-the-world
 * semantics (including STW hiding inside idle time), the
 * synchronisation primitives, events landing on quantum boundaries,
 * the widest core mask, construct-and-drop teardown, the host
 * threads a default machine starts, and the fiber stacks themselves
 * (ABI alignment on first entry, an exception escaping a body, the
 * guard page).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace crev::sim {
namespace {

CostModel
testCosts()
{
    CostModel cm;
    cm.yield_slack = 100;
    cm.quantum = 10'000;
    cm.ctx_switch = 50;
    return cm;
}

TEST(Scheduler, SingleThreadRunsToCompletion)
{
    Scheduler s(1, testCosts());
    Cycles end = 0;
    s.spawn("t", 1, [&](SimThread &t) {
        t.accrue(1234);
        end = t.now();
    });
    s.run();
    EXPECT_EQ(end, 1234u);
    EXPECT_EQ(s.maxClock(), 1234u);
}

TEST(Scheduler, VirtualTimeInterleavingIsFair)
{
    // Two threads on different cores record event order; virtual-time
    // scheduling must interleave them by clock, not by spawn order.
    Scheduler s(2, testCosts());
    std::vector<std::pair<char, Cycles>> events;
    s.spawn("a", 1u << 0, [&](SimThread &t) {
        for (int i = 0; i < 5; ++i) {
            t.accrue(100);
            events.push_back({'a', t.now()});
        }
    });
    s.spawn("b", 1u << 1, [&](SimThread &t) {
        for (int i = 0; i < 5; ++i) {
            t.accrue(100);
            events.push_back({'b', t.now()});
        }
    });
    s.run();
    ASSERT_EQ(events.size(), 10u);
    // Events must be (approximately) sorted by virtual time: no event
    // may precede one that is more than yield_slack older.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].second,
                  events[i].second + testCosts().yield_slack + 100);
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Scheduler s(2, testCosts());
        std::vector<Cycles> trace;
        for (int id = 0; id < 3; ++id) {
            s.spawn("t" + std::to_string(id), id == 0 ? 1u : 2u,
                    [&trace](SimThread &t) {
                        for (int i = 0; i < 50; ++i) {
                            t.accrue(37 + (i % 7));
                            trace.push_back(t.now());
                        }
                    });
        }
        s.run();
        return trace;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, CoreContentionSerialisesSlices)
{
    // Two CPU-bound threads pinned to the same core cannot overlap:
    // total elapsed >= sum of work.
    Scheduler s(1, testCosts());
    const Cycles work = 50'000;
    for (int i = 0; i < 2; ++i)
        s.spawn("t" + std::to_string(i), 1, [&](SimThread &t) {
            Cycles done = 0;
            while (done < work) {
                t.accrue(100);
                done += 100;
            }
        });
    s.run();
    EXPECT_GE(s.maxClock(), 2 * work);
}

TEST(Scheduler, SleepAdvancesWithoutBusy)
{
    Scheduler s(1, testCosts());
    Cycles busy = 0, wall = 0;
    s.spawn("t", 1, [&](SimThread &t) {
        t.accrue(100);
        t.sleep(10'000);
        t.accrue(100);
        busy = t.busyCycles();
        wall = t.now();
    });
    s.run();
    EXPECT_EQ(busy, 200u);
    EXPECT_GE(wall, 10'200u);
}

TEST(Scheduler, BlockAndWake)
{
    Scheduler s(2, testCosts());
    SimThread *waiter_handle = nullptr;
    bool ready = false;
    Cycles woken_at = 0;
    waiter_handle = s.spawn("waiter", 1u << 0, [&](SimThread &t) {
        while (!ready)
            s.block(t);
        woken_at = t.now();
    });
    s.spawn("waker", 1u << 1, [&](SimThread &t) {
        t.accrue(5'000);
        ready = true;
        s.wake(*waiter_handle, t.now());
    });
    s.run();
    EXPECT_GE(woken_at, 5'000u);
}

TEST(Scheduler, StopTheWorldParksRunnableThreads)
{
    Scheduler s(2, testCosts());
    Cycles stw_end = 0;
    Cycles mutator_after = 0;
    bool stw_done = false;

    s.spawn("mutator", 1u << 0, [&](SimThread &t) {
        while (!stw_done)
            t.accrue(50);
        mutator_after = t.now();
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.accrue(2'000);
        {
            StoppedWorld world(t);
            t.accrue(100'000); // world-stopped work
            stw_end = t.now();
        }
        stw_done = true;
    });
    s.run();
    // The mutator cannot have run during the STW window: its next
    // observation time is at or after the STW end.
    EXPECT_GE(mutator_after, stw_end);
}

TEST(Scheduler, StwHidesInsideSleep)
{
    // A thread sleeping past the STW window is not delayed by it —
    // the paper's "stop-the-world phases can hide in idle intervals".
    Scheduler s(2, testCosts());
    Cycles sleeper_resume = 0;
    s.spawn("sleeper", 1u << 0, [&](SimThread &t) {
        t.sleepUntil(1'000'000);
        sleeper_resume = t.now();
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.accrue(1'000);
        StoppedWorld world(t);
        t.accrue(50'000);
    });
    s.run();
    EXPECT_EQ(sleeper_resume, 1'000'000u);
}

TEST(Scheduler, StwDelaysOverlappingSleeper)
{
    // A sleeper due *inside* the window resumes at the STW end.
    Scheduler s(2, testCosts());
    Cycles sleeper_resume = 0;
    Cycles stw_end = 0;
    s.spawn("sleeper", 1u << 0, [&](SimThread &t) {
        t.sleepUntil(500'000);
        sleeper_resume = t.now();
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.sleepUntil(400'000);
        StoppedWorld world(t);
        t.accrue(300'000);
        stw_end = t.now();
    });
    s.run();
    EXPECT_GE(stw_end, 700'000u);
    EXPECT_GE(sleeper_resume, stw_end);
}

TEST(Scheduler, DaemonsExitAtShutdown)
{
    Scheduler s(1, testCosts());
    bool daemon_exited = false;
    s.spawn(
        "daemon", 1,
        [&](SimThread &t) {
            while (!s.shuttingDown())
                s.block(t);
            daemon_exited = true;
        },
        /*daemon=*/true);
    s.spawn("user", 1, [&](SimThread &t) { t.accrue(100); });
    s.run();
    EXPECT_TRUE(daemon_exited);
}

TEST(Scheduler, ContextSwitchChargedOnCoreHandover)
{
    CostModel cm = testCosts();
    Scheduler s(1, cm);
    Cycles busy_a = 0;
    s.spawn("a", 1, [&](SimThread &t) {
        for (int i = 0; i < 100; ++i)
            t.accrue(1'000);
        busy_a = t.busyCycles();
    });
    s.spawn("b", 1, [&](SimThread &t) {
        for (int i = 0; i < 100; ++i)
            t.accrue(1'000);
    });
    s.run();
    // Thread a did 100k of work plus context-switch overhead.
    EXPECT_GT(busy_a, 100'000u);
}

TEST(Scheduler, ThirtyTwoCoresRunThreadOnLastCore)
{
    // The widest machine the constructor accepts: the valid-core mask
    // must cover core 31 without shifting a 32-bit value by 32.
    Scheduler s(32, testCosts());
    unsigned core = 0;
    bool ran = false;
    s.spawn("last", 1u << 31, [&](SimThread &t) {
        t.accrue(10);
        core = t.core();
        ran = true;
    });
    s.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(core, 31u);
}

TEST(Scheduler, DestroyWithoutRunExecutesNoBody)
{
    // Spawned fibers never run until run() grants them, so dropping
    // the scheduler first frees their stacks (ASan's leak check
    // covers them) without executing any body.
    int bodies = 0;
    {
        Scheduler s(2, testCosts());
        for (unsigned i = 0; i < 4; ++i)
            s.spawn("t" + std::to_string(i), 1u << (i % 2),
                    [&](SimThread &) { ++bodies; }, i == 3);
        EXPECT_EQ(s.threads().size(), 4u);
    }
    EXPECT_EQ(bodies, 0);
}

TEST(SimMutex, MutualExclusionAndFifoWake)
{
    Scheduler s(2, testCosts());
    SimMutex mu;
    std::vector<char> order;
    s.spawn("a", 1u << 0, [&](SimThread &t) {
        mu.lock(t);
        t.accrue(10'000);
        order.push_back('a');
        mu.unlock(t);
    });
    s.spawn("b", 1u << 1, [&](SimThread &t) {
        t.accrue(100); // ensure a grabs the lock first
        mu.lock(t);
        order.push_back('b');
        mu.unlock(t);
    });
    s.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 'a');
    EXPECT_EQ(order[1], 'b');
    EXPECT_GE(mu.contended(), 1u);
}

TEST(SimMutex, TryLock)
{
    Scheduler s(1, testCosts());
    SimMutex mu;
    s.spawn("t", 1, [&](SimThread &t) {
        EXPECT_TRUE(mu.tryLock(t));
        EXPECT_FALSE(mu.tryLock(t));
        mu.unlock(t);
        EXPECT_TRUE(mu.tryLock(t));
        mu.unlock(t);
    });
    s.run();
}

TEST(SimQueue, PushPopAcrossThreads)
{
    Scheduler s(2, testCosts());
    SimQueue<int> q;
    std::vector<int> got;
    s.spawn("consumer", 1u << 0, [&](SimThread &t) {
        for (int i = 0; i < 3; ++i) {
            int v = 0;
            Cycles at = 0;
            if (!q.pop(t, v, at))
                break;
            got.push_back(v);
        }
    });
    s.spawn("producer", 1u << 1, [&](SimThread &t) {
        for (int i = 1; i <= 3; ++i) {
            t.accrue(1'000);
            q.push(t, i);
        }
    });
    s.run();
    EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(SimQueue, PopReturnsFalseAtShutdown)
{
    Scheduler s(1, testCosts());
    bool popped = true;
    s.spawn(
        "daemon-consumer", 1,
        [&](SimThread &t) {
            SimQueue<int> q;
            int v;
            Cycles at;
            popped = q.pop(t, v, at);
        },
        /*daemon=*/true);
    s.spawn("user", 1, [](SimThread &t) { t.accrue(10); });
    s.run();
    EXPECT_FALSE(popped);
}

TEST(Scheduler, RegisterFileIsPerThread)
{
    Scheduler s(1, testCosts());
    s.spawn("t", 1, [&](SimThread &t) {
        t.reg(0) = cap::Capability::root(0x1000, 0x2000);
        EXPECT_TRUE(t.reg(0).tag);
        EXPECT_FALSE(t.reg(1).tag);
    });
    s.run();
}

// --- Quantum-boundary edge cases ---
//
// Each scenario lands an event exactly on, or a window across, a
// preemption-quantum boundary, and asserts the event trace that the
// serial token engine (the scheduler's original reference engine)
// produced for it.

using EventTrace = std::vector<std::pair<std::string, Cycles>>;

TEST(Scheduler, WakeExactlyOnQuantumBoundary)
{
    // The waker's clock lands exactly on the quantum boundary when it
    // posts the wake: the wake must be neither delayed into the next
    // quantum nor delivered early.
    Scheduler s(2, testCosts());
    EventTrace ev;
    bool ready = false;
    SimThread *waiter = s.spawn("waiter", 1u << 0, [&](SimThread &t) {
        while (!ready)
            s.block(t);
        ev.push_back({"woken", t.now()});
    });
    s.spawn("waker", 1u << 1, [&](SimThread &t) {
        t.accrue(testCosts().quantum); // lands on the boundary
        ready = true;
        s.wake(*waiter, t.now());
        ev.push_back({"posted", t.now()});
    });
    s.run();
    EXPECT_EQ(ev, (EventTrace{{"posted", 10'000}, {"woken", 10'000}}));
}

TEST(Scheduler, StwStraddlingQuantumBoundary)
{
    // The STW window opens inside one quantum and closes inside the
    // next; the parked mutator resumes at the window's end.
    Scheduler s(2, testCosts());
    EventTrace ev;
    bool stw_done = false;
    s.spawn("mutator", 1u << 0, [&](SimThread &t) {
        while (!stw_done)
            t.accrue(50);
        ev.push_back({"mutator-after", t.now()});
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        t.accrue(6'000); // mid-quantum
        Cycles begin = 0;
        {
            StoppedWorld world(t);
            begin = world.begin();
            t.accrue(8'000); // window crosses the 10'000 boundary
        }
        stw_done = true;
        ev.push_back({"stw", begin});
        ev.push_back({"stw-end", t.now()});
    });
    s.run();
    EXPECT_EQ(ev, (EventTrace{{"stw", 10'100},
                              {"stw-end", 18'100},
                              {"mutator-after", 18'100}}));
}

TEST(Scheduler, DaemonShutdownMidQuantum)
{
    // The last non-daemon thread finishes mid-quantum; the blocked
    // daemon observes shutdown and exits right after it (no waiting
    // out the rest of the quantum).
    Scheduler s(1, testCosts());
    EventTrace ev;
    s.spawn(
        "daemon", 1,
        [&](SimThread &t) {
            while (!s.shuttingDown())
                s.block(t);
            ev.push_back({"daemon-exit", t.now()});
        },
        /*daemon=*/true);
    s.spawn("user", 1, [&](SimThread &t) {
        t.accrue(3'500); // done well inside the first quantum
        ev.push_back({"user-done", t.now()});
    });
    s.run();
    EXPECT_EQ(ev,
              (EventTrace{{"user-done", 3'550}, {"daemon-exit", 3'600}}));
}

TEST(Scheduler, NoYieldSpanningQuantumBoundary)
{
    // A NoYield section that runs across the boundary defers the
    // preemption to its close; the timesliced peer observes the
    // deferred switch.
    Scheduler s(1, testCosts());
    EventTrace ev;
    s.spawn("a", 1, [&](SimThread &t) {
        t.accrue(8'000);
        {
            SimThread::NoYield guard(t);
            t.accrue(4'000); // crosses the 10'000 boundary
        }
        ev.push_back({"a-critical-done", t.now()});
        t.accrue(100); // first yield opportunity after the guard
        ev.push_back({"a-done", t.now()});
    });
    s.spawn("b", 1, [&](SimThread &t) {
        for (int i = 0; i < 4; ++i) {
            t.accrue(3'000);
            ev.push_back({"b", t.now()});
        }
    });
    s.run();
    EXPECT_EQ(ev, (EventTrace{{"a-critical-done", 15'100},
                              {"b", 15'250},
                              {"a-done", 18'300},
                              {"b", 18'350},
                              {"b", 21'350},
                              {"b", 24'350}}));
}

TEST(Scheduler, ParkInsideNoYieldPanics)
{
    // A NoYield window models an atomic section: the thread may not
    // park inside it. yieldNow stays a no-op there; a sleep or a
    // contended lock is a bug and panics.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    {
        Scheduler s(1, testCosts());
        Cycles after = 0;
        s.spawn("t", 1, [&](SimThread &t) {
            SimThread::NoYield guard(t);
            t.accrue(100);
            t.yieldNow();
            after = t.now();
        });
        s.run();
        EXPECT_EQ(after, 100u);
    }
    EXPECT_DEATH(
        {
            Scheduler s(1, testCosts());
            s.spawn("t", 1, [](SimThread &t) {
                SimThread::NoYield guard(t);
                t.sleepUntil(t.now() + 1'000);
            });
            s.run();
        },
        "assertion failed");
    EXPECT_DEATH(
        {
            Scheduler s(2, testCosts());
            SimMutex m;
            s.spawn("holder", 1u << 0, [&](SimThread &t) {
                m.lock(t);
                t.sleep(1'000);
                m.unlock(t);
            });
            s.spawn("waiter", 1u << 1, [&](SimThread &t) {
                t.sleep(100); // the holder has the lock by now
                SimThread::NoYield guard(t);
                m.lock(t);
                m.unlock(t);
            });
            s.run();
        },
        "assertion failed");
}

/** Host threads of this process (Linux: one /proc/self/task entry
 *  per thread). */
std::size_t
hostThreadCount()
{
    std::size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)e;
        ++n;
    }
    return n;
}

TEST(HostThreads, DefaultMachineStartsNoHostThreads)
{
    // The scheduler runs every simulated thread as a fiber on the
    // calling host thread and needs no helper threads: constructing
    // and running a default machine must not change the process's
    // host thread count.
    const std::size_t before = hostThreadCount();
    core::MachineConfig cfg;
    ASSERT_EQ(cfg.cores, 4u);
    core::Machine m(cfg);
    EXPECT_EQ(hostThreadCount(), before);
    std::size_t during = 0;
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        std::vector<cap::Capability> objs;
        for (int i = 0; i < 2000; ++i) {
            objs.push_back(ctx.malloc(64));
            ctx.storeCap(objs.back(), 0, objs[objs.size() / 2]);
            if (objs.size() > 64) {
                ctx.free(objs.front());
                objs.erase(objs.begin());
            }
        }
        during = hostThreadCount();
        for (const cap::Capability &c : objs)
            ctx.free(c);
        m.heap().drain(ctx.thread());
    });
    m.run();
    EXPECT_GT(m.metrics().epochs.size(), 0u);
    EXPECT_EQ(during, before);
    EXPECT_EQ(hostThreadCount(), before);
}

// ---------------------------------------------------------------- //
// Fiber stacks (DESIGN.md §14.2)
// ---------------------------------------------------------------- //

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** Whether an `alignas(16)` local of a fresh frame really sits on a
 *  16-byte boundary. The compiler assumes the SysV ABI's alignment at
 *  every call, so the address goes through a volatile to keep it from
 *  folding the check to true. */
[[gnu::noinline]] bool
frameIsAbiAligned()
{
    alignas(16) unsigned char local[16] = {};
    void *volatile where = local;
    return (reinterpret_cast<std::uintptr_t>(where) & 15u) == 0;
}

TEST(Fiber, FirstEntryHasAbiStackAlignment)
{
    // A fiber's first frame is built by spawn, not by a call, so a
    // wrong initial stack pointer shows only here: each body checks
    // its first callee's frame before doing anything else.
    Scheduler s(2, testCosts());
    std::vector<int> aligned(4, -1);
    for (unsigned i = 0; i < aligned.size(); ++i)
        s.spawn("t" + std::to_string(i), 1u << (i % 2),
                [&aligned, i](SimThread &t) {
                    aligned[i] = frameIsAbiAligned() ? 1 : 0;
                    t.accrue(1000);
                });
    s.run();
    EXPECT_EQ(aligned, std::vector<int>(4, 1));
}

TEST(Fiber, ExceptionEscapingABodyEndsOnlyItsThread)
{
    // fiberMain catches what escapes a body: the thread ends as if a
    // signal killed it, and the others, including one sharing its
    // core, run to completion.
    Scheduler s(2, testCosts());
    bool after_throw = false;
    std::vector<Cycles> ends;
    SimThread *thrower = s.spawn("thrower", 1, [&](SimThread &t) {
        t.accrue(25'000);
        throw std::runtime_error("simulated fault");
        after_throw = true;
    });
    for (unsigned i = 0; i < 3; ++i)
        s.spawn("w" + std::to_string(i), i == 0 ? 1u : 2u,
                [&](SimThread &t) {
                    for (int k = 0; k < 10; ++k)
                        t.accrue(10'000);
                    ends.push_back(t.now());
                });
    s.run();
    EXPECT_FALSE(after_throw);
    EXPECT_TRUE(s.finished(*thrower));
    EXPECT_EQ(ends.size(), 3u);
    for (const auto &tp : s.threads())
        EXPECT_TRUE(s.finished(*tp));
}

/** Non-tail recursion: every frame stays live, so the stack only
 *  grows. */
[[gnu::noinline]] std::uint64_t
recurseForever(std::uint64_t depth)
{
    volatile unsigned char pad[256];
    pad[depth % sizeof(pad)] = static_cast<unsigned char>(depth);
    if (depth == UINT64_MAX)
        return pad[0];
    return recurseForever(depth + 1) + pad[depth % sizeof(pad)];
}

TEST(Fiber, UnboundedRecursionDiesOnTheGuardPage)
{
    // The PROT_NONE page below each fiber stack turns an overflow into
    // SIGSEGV instead of a write into neighbouring host memory.
    if (kSanitized)
        GTEST_SKIP() << "ASan and TSan catch the overflow themselves";
    EXPECT_EXIT(
        {
            Scheduler s(1, testCosts());
            s.spawn("deep", 1,
                    [](SimThread &) { (void)recurseForever(0); });
            s.run();
        },
        ::testing::KilledBySignal(SIGSEGV), "");
}

} // namespace
} // namespace crev::sim
