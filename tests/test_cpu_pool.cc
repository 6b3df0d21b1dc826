/**
 * @file
 * Unit tests for the CPU pool: admission, priority, per-category
 * accounting, and utilization math.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "osmodel/cpu_pool.hh"
#include "sim/simulation.hh"

namespace v3sim::osmodel
{
namespace
{

using sim::Task;
using sim::Tick;
using sim::usecs;

TEST(CpuPool, RunChargesCategory)
{
    sim::Simulation sim;
    CpuPool pool(sim, 2, "cpu");
    sim::spawn([](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        co_await lease.run(usecs(5), CpuCat::Dsa);
        p.release();
    }(pool));
    sim.run();
    EXPECT_EQ(pool.busyTime(CpuCat::Sql), usecs(10));
    EXPECT_EQ(pool.busyTime(CpuCat::Dsa), usecs(5));
    EXPECT_EQ(pool.totalBusyTime(), usecs(15));
}

TEST(CpuPool, AdmissionBoundedByCpuCount)
{
    sim::Simulation sim;
    CpuPool pool(sim, 2, "cpu");
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        sim::spawn([](CpuPool &p, sim::Simulation &s,
                      std::vector<Tick> &out) -> Task<> {
            CpuLease lease = co_await p.acquire();
            co_await lease.run(usecs(10), CpuCat::Sql);
            p.release();
            out.push_back(s.now());
        }(pool, sim, done));
    }
    sim.run();
    ASSERT_EQ(done.size(), 4u);
    EXPECT_EQ(done[0], usecs(10));
    EXPECT_EQ(done[1], usecs(10));
    EXPECT_EQ(done[2], usecs(20));
    EXPECT_EQ(done[3], usecs(20));
}

TEST(CpuPool, InterruptPriorityJumpsQueue)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    std::vector<std::string> order;

    auto normal = [](CpuPool &p, std::vector<std::string> &out,
                     std::string name) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        p.release();
        out.push_back(name);
    };
    auto intr = [](CpuPool &p, std::vector<std::string> &out) -> Task<> {
        CpuLease lease =
            co_await p.acquire(CpuPool::kInterruptPriority);
        co_await lease.run(usecs(1), CpuCat::Kernel);
        p.release();
        out.push_back("intr");
    };

    // All three contend on the same tick, so the final-band
    // arbitration sees the full set (DESIGN.md §8.3): the interrupt
    // outranks both normal acquirers and takes the CPU first; the
    // normal pair then run in arrival order (equal priority and key).
    sim::spawn(normal(pool, order, "a"));
    sim::spawn(normal(pool, order, "b"));
    sim::spawn(intr(pool, order));
    sim.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"intr", "a", "b"}));
}

TEST(CpuPool, ParkOnFullPoolSchedulesNothingReleaseGrantsByPriorityKey)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    std::vector<std::string> order;
    auto holder = [](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        p.release();
    };
    auto waiter = [](CpuPool &p, std::vector<std::string> &out,
                     int priority, uint64_t key,
                     std::string name) -> Task<> {
        CpuLease lease = co_await p.acquire(priority, key);
        out.push_back(name);
        co_await lease.run(usecs(1), CpuCat::Sql);
        p.release();
    };
    sim::spawn(holder(pool));
    sim.runUntil(usecs(1));
    ASSERT_EQ(pool.busyCount(), 1);

    // Four parks on the full pool, out of key order: none of them
    // schedules an event (no grant pass could grant anything).
    const size_t pending = sim.queue().pendingCount();
    const uint64_t dispatches =
        sim.queue().firedCount(sim::EventCategory::TickDispatch);
    sim::spawn(waiter(pool, order, CpuPool::kNormalPriority, 3, "n3"));
    sim::spawn(waiter(pool, order, CpuPool::kNormalPriority, 1, "n1"));
    sim::spawn(
        waiter(pool, order, CpuPool::kInterruptPriority, 7, "i7"));
    sim::spawn(waiter(pool, order, CpuPool::kNormalPriority, 2, "n2"));
    EXPECT_EQ(sim.queue().pendingCount(), pending);
    EXPECT_EQ(pool.waiterCount(), 4u);

    // The holder's release() at 10us requests the pass, which grants
    // by (priority, key): the interrupt first, then ascending keys.
    sim.runUntil(usecs(10));
    EXPECT_EQ(order, (std::vector<std::string>{"i7"}));
    EXPECT_EQ(sim.queue().firedCount(sim::EventCategory::TickDispatch),
              dispatches + 1);
    sim.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"i7", "n1", "n2", "n3"}));
}

TEST(CpuPool, UtilizationPerCategory)
{
    sim::Simulation sim;
    CpuPool pool(sim, 4, "cpu");
    sim::spawn([](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(40), CpuCat::Sql);
        p.release();
    }(pool));
    sim.run();
    sim.runUntil(usecs(100));
    // 40us of one CPU out of 4 CPUs x 100us window = 10%.
    EXPECT_NEAR(pool.utilization(), 0.10, 1e-9);
    EXPECT_NEAR(pool.utilization(CpuCat::Sql), 0.10, 1e-9);
    EXPECT_NEAR(pool.utilization(CpuCat::Kernel), 0.0, 1e-9);
}

TEST(CpuPool, ResetStatsStartsNewWindow)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    sim::spawn([](CpuPool &p) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(usecs(10), CpuCat::Sql);
        p.release();
    }(pool));
    sim.run();
    pool.resetStats();
    sim.runUntil(usecs(20));
    EXPECT_EQ(pool.totalBusyTime(), 0);
    EXPECT_NEAR(pool.utilization(), 0.0, 1e-9);
}

TEST(CpuPool, ZeroDurationRunIsFree)
{
    sim::Simulation sim;
    CpuPool pool(sim, 1, "cpu");
    bool done = false;
    sim::spawn([](CpuPool &p, bool &flag) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await lease.run(0, CpuCat::Sql);
        p.release();
        flag = true;
    }(pool, done));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0);
}

TEST(CpuPool, CategoryNames)
{
    EXPECT_STREQ(cpuCatName(CpuCat::Sql), "SQL");
    EXPECT_STREQ(cpuCatName(CpuCat::Kernel), "OS Kernel");
    EXPECT_STREQ(cpuCatName(CpuCat::Lock), "Lock");
    EXPECT_STREQ(cpuCatName(CpuCat::Dsa), "DSA");
    EXPECT_STREQ(cpuCatName(CpuCat::Vi), "VI");
    EXPECT_STREQ(cpuCatName(CpuCat::Other), "Other");
}

} // namespace
} // namespace v3sim::osmodel
