/**
 * @file
 * Unit tests for ServiceStage placement and Semaphore fairness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "sim/resource.hh"
#include "sim/service_stage.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"

namespace v3sim::sim
{
namespace
{

TEST(ServiceStage, SingleServerSerializesJobs)
{
    Simulation sim;
    ServiceStage stage(sim.queue(), usecs(10), EventCategory::Other);
    std::vector<Tick> done_at;
    for (int i = 0; i < 3; ++i)
        stage.place(0, 0, [&] { done_at.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done_at.size(), 3u);
    EXPECT_EQ(done_at[0], usecs(10));
    EXPECT_EQ(done_at[1], usecs(20));
    EXPECT_EQ(done_at[2], usecs(30));
}

TEST(ServiceStage, ZeroServiceJobsCompleteSameTick)
{
    Simulation sim;
    ServiceStage stage(sim.queue(), 0, EventCategory::Other);
    bool done = false;
    stage.place(0, 0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), 0);
}

TEST(ServiceStage, UncontendedJobFiresOneEvent)
{
    // The job is placed at submission: no admission event, only the
    // service completion, in the stage's category.
    Simulation sim;
    ServiceStage stage(sim.queue(), usecs(10), EventCategory::PoolDone);
    bool done = false;
    stage.place(0, 0, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.queue().firedCount(), 1u);
    EXPECT_EQ(sim.queue().firedCount(EventCategory::PoolDone), 1u);
}

// DESIGN.md §8.3: a same-tick job that sorts before one already
// started on this tick takes the server; the displaced job's event is
// cancelled and re-armed, so it never fires stale.
TEST(ServiceStage, SameTickLowerKeyDisplacesProvisionalStart)
{
    Simulation sim;
    ServiceStage stage(sim.queue(), usecs(10), EventCategory::Other);
    std::vector<std::pair<uint64_t, Tick>> done_at;
    // Each key displaces the one before it; the displaced jobs queue
    // in key order, not in displacement order.
    for (const uint64_t key : {5u, 3u, 1u}) {
        stage.place(0, key,
                    [&, key] { done_at.emplace_back(key, sim.now()); });
    }
    sim.run();
    EXPECT_EQ(done_at, (std::vector<std::pair<uint64_t, Tick>>{
                           {1, usecs(10)}, {3, usecs(20)}, {5, usecs(30)}}));
    EXPECT_EQ(sim.queue().firedCount(), 3u);
}

TEST(ServiceStage, SameTickStartsIndependentOfArrivalOrder)
{
    // Three same-tick jobs are served in key order in every
    // placement order.
    std::array<uint64_t, 3> keys{1, 2, 3};
    int orders = 0;
    do {
        Simulation sim;
        ServiceStage stage(sim.queue(), usecs(10), EventCategory::Other);
        std::array<Tick, 3> done_at{};
        for (const uint64_t key : keys) {
            const size_t i = key - 1;
            stage.place(0, key, [&, i] { done_at[i] = sim.now(); });
        }
        sim.run();
        EXPECT_EQ(done_at, (std::array<Tick, 3>{usecs(10), usecs(20),
                                                usecs(30)}));
        EXPECT_EQ(sim.queue().firedCount(), 3u);
        ++orders;
    } while (std::next_permutation(keys.begin(), keys.end()));
    EXPECT_EQ(orders, 6);
}

TEST(ServiceStage, FifoAcrossArrivalTicks)
{
    // A later arrival waits for an earlier one whatever its key, and
    // a job whose arrival is still ahead is placed now and starts on
    // arrival.
    Simulation sim;
    ServiceStage stage(sim.queue(), usecs(10), EventCategory::Other);
    std::vector<std::pair<uint64_t, Tick>> done_at;
    stage.place(usecs(5), 9, [&] { done_at.emplace_back(9, sim.now()); });
    stage.place(usecs(8), 1, [&] { done_at.emplace_back(1, sim.now()); });
    stage.place(usecs(40), 0,
                [&] { done_at.emplace_back(0, sim.now()); });
    sim.run();
    EXPECT_EQ(done_at, (std::vector<std::pair<uint64_t, Tick>>{
                           {9, usecs(15)}, {1, usecs(25)}, {0, usecs(50)}}));
}

TEST(ServiceStage, WithdrawUnarrivedKeepsArrivedJobs)
{
    // Jobs that arrived by now stay and finish; the one still ahead
    // is handed back and fires nothing.
    Simulation sim;
    ServiceStage stage(sim.queue(), usecs(10), EventCategory::Other);
    std::vector<std::pair<int, Tick>> done_at;
    for (const int i : {1, 2, 3}) {
        stage.place(i == 3 ? usecs(30) : usecs(i), 0,
                    [&, i] { done_at.emplace_back(i, sim.now()); });
    }
    sim.runUntil(usecs(5));
    EXPECT_EQ(stage.arrived(), 2u);
    std::vector<ServiceStage::Withdrawn> out = stage.withdrawUnarrived();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].arrival, usecs(30));
    sim.run();
    EXPECT_EQ(done_at, (std::vector<std::pair<int, Tick>>{
                           {1, usecs(11)}, {2, usecs(21)}}));
    EXPECT_EQ(sim.queue().firedCount(), 2u);
    EXPECT_EQ(stage.arrived(), 2u);
    // The withdrawn job's cancelled event does not move the clock.
    EXPECT_EQ(sim.now(), usecs(21));
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
