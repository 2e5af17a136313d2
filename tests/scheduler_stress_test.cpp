/**
 * @file
 * Stress and edge-case tests for the virtual-time scheduler beyond
 * sim_test's basics: many threads over few cores, determinism at
 * scale, repeated stop-the-world cycles, spawn-during-run, quantum
 * scaling, and fairness on shared cores.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace crev::sim {
namespace {

CostModel
stressCosts()
{
    CostModel cm;
    cm.yield_slack = 500;
    cm.quantum = 20'000;
    cm.ctx_switch = 100;
    return cm;
}

TEST(SchedulerStress, ManyThreadsFewCoresDeterministic)
{
    auto run_once = [] {
        Scheduler s(2, stressCosts());
        std::vector<Cycles> finishes(12);
        for (int id = 0; id < 12; ++id) {
            s.spawn("t" + std::to_string(id), id % 2 ? 1u : 3u,
                    [&finishes, id](SimThread &t) {
                        for (int i = 0; i < 200; ++i)
                            t.accrue(53 + (id * 7 + i) % 31);
                        finishes[id] = t.now();
                    });
        }
        s.run();
        return finishes;
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a, b);
}

TEST(SchedulerStress, SharedCoreIsApproximatelyFair)
{
    // Three equal CPU-bound threads on one core finish within one
    // quantum of one another.
    Scheduler s(1, stressCosts());
    std::vector<Cycles> finishes(3);
    for (int id = 0; id < 3; ++id) {
        s.spawn("t" + std::to_string(id), 1,
                [&finishes, id](SimThread &t) {
                    Cycles done = 0;
                    while (done < 300'000) {
                        t.accrue(250);
                        done += 250;
                    }
                    finishes[id] = t.now();
                });
    }
    s.run();
    const Cycles lo = *std::min_element(finishes.begin(),
                                        finishes.end());
    const Cycles hi = *std::max_element(finishes.begin(),
                                        finishes.end());
    EXPECT_LT(hi - lo, 2 * stressCosts().quantum + 10'000);
}

TEST(SchedulerStress, RepeatedStwCycles)
{
    Scheduler s(2, stressCosts());
    int stw_rounds = 0;
    bool done = false;
    Cycles mutator_progress = 0;

    s.spawn("mutator", 1u << 0, [&](SimThread &t) {
        while (!done) {
            t.accrue(100);
            mutator_progress += 100;
        }
    });
    s.spawn("revoker", 1u << 1, [&](SimThread &t) {
        for (int i = 0; i < 50; ++i) {
            t.accrue(2'000);
            {
                StoppedWorld world(t);
                t.accrue(5'000);
            }
            ++stw_rounds;
        }
        done = true;
    });
    s.run();
    EXPECT_EQ(stw_rounds, 50);
    EXPECT_GT(mutator_progress, 0u);
}

TEST(SchedulerStress, SpawnDuringRunInheritsClock)
{
    Scheduler s(2, stressCosts());
    Cycles child_start = 0;
    s.spawn("parent", 1u << 0, [&](SimThread &t) {
        t.accrue(40'000);
        s.spawn("child", 1u << 1, [&](SimThread &ct) {
            child_start = ct.now();
            ct.accrue(10);
        });
        t.accrue(40'000);
    });
    s.run();
    // The child cannot begin before its spawn point in virtual time.
    EXPECT_GE(child_start, 40'000u);
}

TEST(SchedulerStress, QuantumScaleShortensSlices)
{
    // With a tiny quantum scale, a low-priority-style thread gets
    // preempted more often: measure interleaving granularity via the
    // other thread's observations.
    auto longest_burst = [](double scale) {
        Scheduler s(1, stressCosts());
        std::vector<char> trace;
        SimThread *bg = s.spawn("bg", 1, [&](SimThread &t) {
            for (int i = 0; i < 600; ++i) {
                t.accrue(250);
                trace.push_back('b');
            }
        });
        s.setQuantumScale(*bg, scale);
        s.spawn("fg", 1, [&](SimThread &t) {
            for (int i = 0; i < 600; ++i) {
                t.accrue(250);
                trace.push_back('f');
            }
        });
        s.run();
        int longest = 0, cur = 0;
        for (char c : trace) {
            cur = c == 'b' ? cur + 1 : 0;
            longest = std::max(longest, cur);
        }
        return longest;
    };
    EXPECT_LE(longest_burst(0.05), longest_burst(1.0));
}

TEST(SchedulerStress, ProducerConsumerChainAcrossCores)
{
    // A three-stage pipeline over queues: values must arrive in order
    // with monotone virtual timestamps.
    Scheduler s(3, stressCosts());
    SimQueue<int> q1, q2;
    std::vector<int> got;
    std::vector<Cycles> stamps;

    s.spawn("stage1", 1u << 0, [&](SimThread &t) {
        for (int i = 0; i < 50; ++i) {
            t.accrue(500);
            q1.push(t, i);
        }
    });
    s.spawn("stage2", 1u << 1, [&](SimThread &t) {
        for (int i = 0; i < 50; ++i) {
            int v;
            Cycles at;
            ASSERT_TRUE(q1.pop(t, v, at));
            t.accrue(300);
            q2.push(t, v * 2);
        }
    });
    s.spawn("stage3", 1u << 2, [&](SimThread &t) {
        for (int i = 0; i < 50; ++i) {
            int v;
            Cycles at;
            ASSERT_TRUE(q2.pop(t, v, at));
            got.push_back(v);
            stamps.push_back(t.now());
        }
    });
    s.run();
    ASSERT_EQ(got.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(got[i], i * 2);
    for (std::size_t i = 1; i < stamps.size(); ++i)
        EXPECT_LE(stamps[i - 1], stamps[i]);
}

TEST(SchedulerStress, BlockedThreadsDoNotBurnCpu)
{
    Scheduler s(2, stressCosts());
    SimThread *waiter = nullptr;
    bool released = false;
    waiter = s.spawn("waiter", 1u << 0, [&](SimThread &t) {
        while (!released)
            s.block(t);
    });
    s.spawn("worker", 1u << 1, [&](SimThread &t) {
        t.accrue(1'000'000);
        released = true;
        s.wake(*waiter, t.now());
    });
    s.run();
    // The waiter accrued (almost) nothing while parked for 1M cycles.
    EXPECT_LT(waiter->busyCycles(), 5'000u);
    EXPECT_GE(waiter->now(), 1'000'000u);
}

TEST(SchedulerStress, StwExcludesMultipleMutators)
{
    // With several runnable mutators, none may observe a timestamp
    // inside the STW window.
    Scheduler s(4, stressCosts());
    Cycles stw_begin = 0, stw_end = 0;
    bool done = false;
    std::vector<std::vector<Cycles>> seen(3);

    for (int id = 0; id < 3; ++id) {
        s.spawn("m" + std::to_string(id), 1u << id,
                [&, id](SimThread &t) {
                    while (!done) {
                        t.accrue(200);
                        seen[id].push_back(t.now());
                    }
                });
    }
    s.spawn("revoker", 1u << 3, [&](SimThread &t) {
        t.accrue(50'000);
        {
            StoppedWorld world(t);
            stw_begin = world.begin();
            t.accrue(400'000);
            stw_end = t.now();
        }
        t.accrue(50'000);
        done = true;
    });
    s.run();

    for (const auto &stamps : seen) {
        for (Cycles c : stamps) {
            // A mutator observation strictly inside the window means
            // it executed while the world was stopped.
            EXPECT_FALSE(c > stw_begin + 200 && c < stw_end)
                << "mutator ran inside STW window";
        }
    }
}

TEST(SchedulerStress, ShutdownWakesFaultInjectedBlockedDaemon)
{
    // A sweeper-style daemon that a fault plan stalls (virtual-time
    // sleep) and then leaves blocked on an event nobody will ever
    // notify. When the only non-daemon thread finishes, shutdown must
    // force it through both states and it must observe shuttingDown()
    // and exit cleanly instead of hanging the run.
    FaultPlan plan;
    plan.enabled = true;
    plan.seed = 77;
    plan.sweeper_stall_prob = 1.0;
    plan.sweeper_stall_cycles = 200'000;
    FaultInjector inj(plan);

    Scheduler s(2, stressCosts());
    SimEvent never_notified;
    bool observed_shutdown = false;
    s.spawn(
        "sweeper", 1u << 0,
        [&](SimThread &t) {
            const Cycles stall = inj.sweeperStall(t);
            if (stall > 0)
                t.sleep(stall);
            while (!s.shuttingDown())
                never_notified.wait(t);
            observed_shutdown = true;
        },
        /*daemon=*/true);
    s.spawn("app", 1u << 1, [&](SimThread &t) { t.accrue(50'000); });
    s.run();

    EXPECT_TRUE(observed_shutdown);
    EXPECT_EQ(inj.counters().sweeper_stalls, 1u);
}

} // namespace
} // namespace crev::sim
