/**
 * @file
 * Unit tests for ServerPool queueing and Semaphore fairness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "sim/resource.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::sim
{
namespace
{

TEST(ServerPool, SingleServerSerializesJobs)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    std::vector<Tick> done_at;
    for (int i = 0; i < 3; ++i)
        pool.submit(usecs(10), [&] { done_at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    EXPECT_EQ(done_at[0], usecs(10));
    EXPECT_EQ(done_at[1], usecs(20));
    EXPECT_EQ(done_at[2], usecs(30));
}

TEST(ServerPool, MultiServerRunsInParallel)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 2);
    std::vector<Tick> done_at;
    for (int i = 0; i < 4; ++i)
        pool.submit(usecs(10), [&] { done_at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_at.size(), 4u);
    EXPECT_EQ(done_at[0], usecs(10));
    EXPECT_EQ(done_at[1], usecs(10));
    EXPECT_EQ(done_at[2], usecs(20));
    EXPECT_EQ(done_at[3], usecs(20));
}

TEST(ServerPool, AwaitableUse)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    Tick finished = -1;
    spawn([](Simulation &s, ServerPool &p, Tick &out) -> Task<> {
        co_await p.use(usecs(25));
        out = s.now();
    }(sim, pool, finished));
    sim.run();
    EXPECT_EQ(finished, usecs(25));
}

TEST(ServerPool, WaitStatsMeasureQueueing)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    pool.submit(usecs(10), [] {});
    pool.submit(usecs(10), [] {});
    pool.submit(usecs(10), [] {});
    sim.run();
    // Waits: 0, 10us, 20us -> mean 10us.
    EXPECT_EQ(pool.waitStats().count(), 3u);
    EXPECT_DOUBLE_EQ(pool.waitStats().mean(),
                     static_cast<double>(usecs(10)));
    EXPECT_EQ(pool.completedCount(), 3u);
}

TEST(ServerPool, UtilizationReflectsBusyFraction)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 2);
    pool.submit(usecs(10), [] {});
    sim.run();
    sim.runUntil(usecs(20));
    // One of two servers busy for 10us of a 20us window.
    EXPECT_NEAR(pool.utilization(), 0.25, 1e-9);
}

TEST(ServerPool, ZeroServiceJobsCompleteSameTick)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    bool done = false;
    pool.submit(0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0);
}

TEST(ServerPool, ZeroServiceJobsShareOneDispatch)
{
    // Three pools, each with two zero-service jobs: the six
    // completions run in the tick's one dispatch event, each pool's
    // jobs in start order (a done callback that submits another
    // zero-service job joins the same pass).
    Simulation sim;
    ServerPool a(sim.queue(), 2);
    ServerPool b(sim.queue(), 2);
    ServerPool c(sim.queue(), 2);
    std::vector<int> done;
    for (ServerPool *pool : {&c, &a, &b}) {
        const int base = pool == &a ? 0 : pool == &b ? 10 : 20;
        pool->submit(0, [&done, base] { done.push_back(base); });
        pool->submit(0, [&done, base, &a] {
            done.push_back(base + 1);
            if (base == 20)
                a.submit(0, [&done] { done.push_back(2); });
        });
    }
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(sim.queue().firedCount(EventCategory::TickDispatch), 1u);
    EXPECT_EQ(done, (std::vector<int>{0, 1, 10, 11, 20, 21, 2}));
}

TEST(ServerPool, UncontendedJobFiresOneEvent)
{
    // The grant is decided on arrival: no admission event, only the
    // service completion.
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    bool done = false;
    pool.submit(usecs(10), [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.queue().firedCount(), 1u);
}

// DESIGN.md §8.3: a same-tick job that sorts before one already
// started on this tick takes its server; the displaced job's stale
// completion event is ignored.
TEST(ServerPool, SameTickLowerKeyDisplacesProvisionalStart)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    std::vector<std::pair<uint64_t, Tick>> done_at;
    // Each key displaces the one before it; the displaced jobs queue
    // in key order, not in displacement order.
    for (const uint64_t key : {5u, 3u, 1u}) {
        pool.submit(
            usecs(10), [&, key] { done_at.emplace_back(key, sim.now()); },
            key);
    }
    sim.run();
    EXPECT_EQ(done_at, (std::vector<std::pair<uint64_t, Tick>>{
                           {1, usecs(10)}, {3, usecs(20)}, {5, usecs(30)}}));
    EXPECT_EQ(pool.completedCount(), 3u);
    // Three completions plus the two displaced starts' stale events.
    EXPECT_EQ(sim.queue().firedCount(), 5u);
    EXPECT_EQ(pool.utilization(), 1.0);
    EXPECT_DOUBLE_EQ(pool.waitStats().mean(),
                     static_cast<double>(usecs(10)));
}

TEST(ServerPool, SameTickStartsIndependentOfArrivalOrder)
{
    // Two servers, three same-tick jobs: keys 1 and 2 start at once,
    // key 3 takes the first server to free up — in every arrival
    // order.
    const std::array<Tick, 3> service{usecs(10), usecs(30), usecs(5)};
    std::array<uint64_t, 3> keys{1, 2, 3};
    int orders = 0;
    do {
        Simulation sim;
        ServerPool pool(sim.queue(), 2);
        std::array<Tick, 3> done_at{};
        for (const uint64_t key : keys) {
            const size_t i = key - 1;
            pool.submit(service[i], [&, i] { done_at[i] = sim.now(); },
                        key);
        }
        sim.run();
        EXPECT_EQ(done_at, (std::array<Tick, 3>{usecs(10), usecs(30),
                                                usecs(15)}));
        EXPECT_EQ(pool.completedCount(), 3u);
        ++orders;
    } while (std::next_permutation(keys.begin(), keys.end()));
    EXPECT_EQ(orders, 6);
}

TEST(ServerPool, ZeroServiceJobIsDisplaceable)
{
    // A zero-service job completes in the final band, so a same-tick
    // job with a smaller key — even one submitted by a later
    // zero-delay event — still takes the server first.
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    std::vector<std::pair<uint64_t, Tick>> done_at;
    pool.submit(0, [&] { done_at.emplace_back(5, sim.now()); }, 5);
    sim.queue().schedule(0, [&] {
        pool.submit(
            usecs(10), [&] { done_at.emplace_back(1, sim.now()); }, 1);
    });
    sim.run();
    EXPECT_EQ(done_at, (std::vector<std::pair<uint64_t, Tick>>{
                           {1, usecs(10)}, {5, usecs(10)}}));
    EXPECT_EQ(pool.completedCount(), 2u);
}

TEST(ServerPool, ResetStatsClearsWindow)
{
    Simulation sim;
    ServerPool pool(sim.queue(), 1);
    pool.submit(usecs(10), [] {});
    sim.run();
    pool.resetStats();
    sim.runUntil(usecs(30));
    EXPECT_NEAR(pool.utilization(), 0.0, 1e-9);
    EXPECT_EQ(pool.completedCount(), 0u);
}

TEST(Semaphore, AcquireBlocksUntilRelease)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 1);
    std::vector<int> order;
    auto worker = [](Simulation &s, Semaphore &sm,
                     std::vector<int> &out, int id) -> Task<> {
        co_await sm.acquire();
        out.push_back(id);
        co_await s.sleep(usecs(10));
        sm.release();
    };
    spawn(worker(sim, sem, order, 1));
    spawn(worker(sim, sem, order, 2));
    spawn(worker(sim, sem, order, 3));
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sem.available(), 1);
}

TEST(Semaphore, ReleaseManyWakesFifo)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        spawn([](Semaphore &sm, std::vector<int> &out, int id) -> Task<> {
            co_await sm.acquire();
            out.push_back(id);
        }(sem, order, i));
    }
    sim.run();
    EXPECT_EQ(sem.waiterCount(), 4u);
    sem.release(2);
    sim.run(); // grants land in the final band
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    sem.release(10);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(sem.available(), 8);
}

// DESIGN.md §8.3: same-tick acquirers are granted in order_key
// order, not park (arrival) order — the tie-shuffle may permute
// arrival, so content keys must decide who gets a scarce count.
TEST(Semaphore, SameTickGrantsFollowOrderKey)
{
    Simulation sim;
    Semaphore sem(sim.queue(), 2);
    std::vector<int> order;
    // Park in descending-key order; grants must ascend by key.
    for (int i = 3; i >= 0; --i) {
        spawn([](Semaphore &sm, std::vector<int> &out, int id) -> Task<> {
            co_await sm.acquire(static_cast<uint64_t>(id));
            out.push_back(id);
        }(sem, order, i));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(sem.waiterCount(), 2u);
    sem.release(2);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Semaphore, GrantsOfManySemaphoresShareOneDispatch)
{
    // Releases on four semaphores in one tick cost one dispatch; the
    // grant passes run in construction (registration) order.
    Simulation sim;
    std::vector<std::unique_ptr<Semaphore>> sems;
    for (int i = 0; i < 4; ++i)
        sems.push_back(std::make_unique<Semaphore>(sim.queue(), 0));
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        spawn([](Semaphore &sm, std::vector<int> &out, int id) -> Task<> {
            co_await sm.acquire();
            out.push_back(id);
        }(*sems[i], order, i));
    }
    sim.run();
    sim.queue().schedule(usecs(1), [&] {
        for (int i : {2, 0, 3, 1})
            sems[i]->release();
    });
    EXPECT_EQ(sim.run(), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

} // namespace
} // namespace v3sim::sim
