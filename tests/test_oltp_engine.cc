/**
 * @file
 * Unit tests for the OLTP engine over an in-memory fake device:
 * worker lifecycle, counters, CPU accounting, and the blocking vs
 * polling completion-overhead distinction; and for the open-loop
 * driver's in-system accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "db/oltp_engine.hh"
#include "db/open_loop.hh"
#include "sim/simulation.hh"

namespace v3sim::db
{
namespace
{

/** Fixed-latency device: no CPU cost, pure delay. */
class FakeDevice : public dsa::BlockDevice
{
  public:
    FakeDevice(sim::Simulation &sim, sim::Tick latency)
        : sim_(sim), latency_(latency)
    {}

    sim::Task<bool>
    read(uint64_t, uint64_t, sim::Addr) override
    {
        ++ios;
        co_await sim_.sleep(latency_);
        co_return true;
    }

    sim::Task<bool>
    write(uint64_t, uint64_t, sim::Addr) override
    {
        ++ios;
        co_await sim_.sleep(latency_);
        co_return true;
    }

    uint64_t capacity() const override { return 1ull << 40; }

    uint64_t ios = 0;

  private:
    sim::Simulation &sim_;
    sim::Tick latency_;
};

class OltpEngineTest : public ::testing::Test
{
  protected:
    OltpEngineTest()
        : node_(sim_, osmodel::NodeConfig{.name = "db", .cpus = 4}),
          device_(sim_, sim::usecs(200))
    {
        tpcc::TpccConfig workload_config;
        workload_config.warehouses = 4;
        workload_config.bytes_per_warehouse = 8 * util::kMiB;
        workload_config.ios_per_txn = 4;
        workload_config.cpu_per_txn = sim::usecs(100);
        workload_ = std::make_unique<tpcc::Workload>(
            workload_config, device_.capacity(), sim_.forkRng());
    }

    sim::Simulation sim_;
    osmodel::Node node_;
    FakeDevice device_;
    std::unique_ptr<tpcc::Workload> workload_;
};

TEST_F(OltpEngineTest, RunsAndCounts)
{
    OltpConfig config;
    config.workers = 8;
    OltpEngine engine(node_, device_, *workload_, config);
    const OltpResult result =
        engine.run(sim::msecs(10), sim::msecs(100));
    EXPECT_GT(result.total_tpm, 0);
    EXPECT_GT(result.tpmc, 0);
    EXPECT_LT(result.tpmc, result.total_tpm);
    // tpmC is the New-Order share, ~45% of all transactions.
    EXPECT_NEAR(result.tpmc / result.total_tpm, 0.45, 0.08);
    EXPECT_GT(result.io_per_second, 0);
    EXPECT_GT(engine.committedCount(), 0u);
    EXPECT_GT(device_.ios, 0u);
}

TEST_F(OltpEngineTest, CpuBreakdownTilesUtilization)
{
    OltpConfig config;
    config.workers = 16;
    OltpEngine engine(node_, device_, *workload_, config);
    const OltpResult result =
        engine.run(sim::msecs(10), sim::msecs(100));
    double sum = 0;
    for (const double share : result.cpu_breakdown)
        sum += share;
    EXPECT_NEAR(sum, result.cpu_utilization, 1e-6);
    // SQL work and induced overheads both show up.
    EXPECT_GT(result.cpu_breakdown[static_cast<size_t>(
                  osmodel::CpuCat::Sql)],
              0.0);
    EXPECT_GT(result.cpu_breakdown[static_cast<size_t>(
                  osmodel::CpuCat::Kernel)],
              0.0);
    EXPECT_GT(result.cpu_breakdown[static_cast<size_t>(
                  osmodel::CpuCat::Lock)],
              0.0);
}

TEST_F(OltpEngineTest, PollingCompletionShiftsKernelToOther)
{
    OltpConfig blocking;
    blocking.workers = 8;
    blocking.polling_completion = false;

    OltpConfig polling = blocking;
    polling.polling_completion = true;

    OltpEngine engine_blocking(node_, device_, *workload_, blocking);
    const OltpResult rb =
        engine_blocking.run(sim::msecs(10), sim::msecs(80));
    const double kernel_blocking =
        rb.cpu_breakdown[static_cast<size_t>(
            osmodel::CpuCat::Kernel)] /
        rb.cpu_utilization;

    sim::Simulation sim2;
    osmodel::Node node2(sim2, osmodel::NodeConfig{.name = "db2",
                                                  .cpus = 4});
    FakeDevice device2(sim2, sim::usecs(200));
    tpcc::TpccConfig wc;
    wc.warehouses = 4;
    wc.bytes_per_warehouse = 8 * util::kMiB;
    tpcc::Workload workload2(wc, device2.capacity(), sim2.forkRng());
    OltpEngine engine_polling(node2, device2, workload2, polling);
    const OltpResult rp =
        engine_polling.run(sim::msecs(10), sim::msecs(80));
    const double kernel_polling =
        rp.cpu_breakdown[static_cast<size_t>(
            osmodel::CpuCat::Kernel)] /
        rp.cpu_utilization;

    EXPECT_LT(kernel_polling, kernel_blocking);
}

TEST_F(OltpEngineTest, MoreWorkersMoreThroughputUntilSaturation)
{
    auto run_with = [&](int workers) {
        sim::Simulation s;
        osmodel::Node n(s, osmodel::NodeConfig{.name = "db",
                                               .cpus = 4});
        FakeDevice d(s, sim::usecs(200));
        tpcc::TpccConfig wc;
        wc.warehouses = 4;
        wc.bytes_per_warehouse = 8 * util::kMiB;
        tpcc::Workload w(wc, d.capacity(), s.forkRng());
        OltpConfig config;
        config.workers = workers;
        OltpEngine engine(n, d, w, config);
        return engine.run(sim::msecs(10), sim::msecs(80)).total_tpm;
    };
    const double one = run_with(1);
    const double eight = run_with(8);
    EXPECT_GT(eight, 3 * one);
}

TEST_F(OltpEngineTest, StopHaltsWorkers)
{
    OltpConfig config;
    config.workers = 4;
    OltpEngine engine(node_, device_, *workload_, config);
    engine.start();
    sim_.runUntil(sim::msecs(20));
    engine.stop();
    sim_.run(); // workers drain at their txn boundary
    const uint64_t committed = engine.committedCount();
    sim_.runUntil(sim_.now() + sim::msecs(20));
    EXPECT_EQ(engine.committedCount(), committed);
}

TEST_F(OltpEngineTest, LogWriterStreamsSequentially)
{
    sim::Simulation s;
    osmodel::Node n(s, osmodel::NodeConfig{.name = "db", .cpus = 4});
    FakeDevice data(s, sim::usecs(100));
    FakeDevice log(s, sim::usecs(50));
    tpcc::TpccConfig wc;
    wc.warehouses = 4;
    wc.bytes_per_warehouse = 8 * util::kMiB;
    tpcc::Workload w(wc, data.capacity(), s.forkRng());
    OltpConfig config;
    config.workers = 8;
    config.enable_log = true;
    OltpEngine engine(n, data, w, config);
    engine.setLogDevice(&log);
    engine.run(sim::msecs(10), sim::msecs(100));
    EXPECT_GT(log.ios, 0u);
}


/** Fixed-latency device that probes the driver's in-system level
 *  around each completion. */
class ProbeDevice : public dsa::BlockDevice
{
  public:
    ProbeDevice(sim::Simulation &sim, sim::Tick latency)
        : sim_(sim), latency_(latency)
    {}

    sim::Task<bool>
    read(uint64_t, uint64_t, sim::Addr) override
    {
        return io();
    }

    sim::Task<bool>
    write(uint64_t, uint64_t, sim::Addr) override
    {
        return io();
    }

    uint64_t capacity() const override { return 1ull << 30; }

    OpenLoopDriver *driver = nullptr;
    uint64_t completed = 0;
    /** inSystem() later in the completion tick, and admitted minus
     *  completed against inSystem() on the next tick. */
    std::vector<uint32_t> same_tick;
    std::vector<std::pair<uint64_t, uint64_t>> next_tick;

  private:
    sim::Task<bool>
    io()
    {
        co_await sim_.sleep(latency_);
        const uint64_t done = ++completed;
        sim_.queue().schedule(
            0, [this] { same_tick.push_back(driver->inSystem()); });
        sim_.queue().schedule(1, [this, done] {
            next_tick.emplace_back(driver->offeredCount() -
                                       driver->overflowCount() - done,
                                   driver->inSystem());
        });
        co_return true;
    }

    sim::Simulation &sim_;
    sim::Tick latency_;
};

TEST(OpenLoopDriver, CompletionsLeaveBeforeTheNextTicksCapCheck)
{
    // A finished request leaves in_system_ in its tick's arbiter
    // dispatch: a same-tick reader (like a same-tick generator cap
    // check) still counts it, a reader on any later tick does not.
    sim::Simulation sim;
    osmodel::Node node(sim, osmodel::NodeConfig{.name = "host", .cpus = 2});
    ProbeDevice device(sim, sim::usecs(30));
    OpenLoopConfig config;
    config.tenants = 1000;
    config.offered_iops = 20'000.0;
    config.max_inflight = 4;
    config.queue_cap = 4;
    OpenLoopDriver driver(node, device, config, sim.forkRng());
    device.driver = &driver;
    driver.start();
    sim.runUntil(sim::msecs(20));
    driver.stop();
    sim.run();

    ASSERT_GT(device.completed, 100u);
    ASSERT_EQ(device.same_tick.size(), device.completed);
    ASSERT_EQ(device.next_tick.size(), device.completed);
    for (uint32_t level : device.same_tick)
        EXPECT_GE(level, 1u);
    for (const auto &[expected, level] : device.next_tick)
        EXPECT_EQ(level, expected);
    EXPECT_EQ(driver.inSystem(), 0u);
}

} // namespace
} // namespace v3sim::db
