#include "db/open_loop.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace v3sim::db
{

const char *
arrivalProcessName(ArrivalProcess process)
{
    switch (process) {
      case ArrivalProcess::Poisson: return "poisson";
      case ArrivalProcess::Bursty: return "bursty";
      case ArrivalProcess::Diurnal: return "diurnal";
    }
    return "?";
}

OpenLoopDriver::OpenLoopDriver(osmodel::Node &host,
                               dsa::BlockDevice &device,
                               OpenLoopConfig config, sim::Rng rng)
    : sim::TickArbiter(host.sim().queue(),
                       [](sim::TickArbiter &self) {
                           OpenLoopDriver &driver =
                               static_cast<OpenLoopDriver &>(self);
                           assert(driver.in_system_ >= driver.leaving_);
                           driver.in_system_ -= driver.leaving_;
                           driver.leaving_ = 0;
                       }),
      host_(host), device_(device), config_(config), rng_(rng),
      zipf_(config_.tenants, config_.zipf_theta),
      lanes_(host.sim().queue(),
             static_cast<int64_t>(config_.max_inflight)),
      metric_prefix_(host.sim().metrics().uniquePrefix("db.openloop")),
      offered_(host.sim().metrics().counter(metric_prefix_ +
                                            ".offered")),
      overflow_(host.sim().metrics().counter(metric_prefix_ +
                                             ".overflow")),
      failed_(host.sim().metrics().counter(metric_prefix_ +
                                           ".failed")),
      late_(host.sim().metrics().counter(metric_prefix_ + ".late")),
      goodput_(host.sim().metrics().counter(metric_prefix_ +
                                            ".goodput")),
      latency_(host.sim().metrics().sampler(metric_prefix_ +
                                            ".latency_ns")),
      latency_hist_(host.sim().metrics().histogram(
          metric_prefix_ + ".latency_hist_ns")),
      queue_wait_(host.sim().metrics().sampler(metric_prefix_ +
                                               ".queue_wait_ns"))
{
    for (uint32_t i = 0; i < config_.max_inflight; ++i)
        free_buffers_.insert(
            host_.memory().allocate(config_.io_bytes));
}

OpenLoopDriver::~OpenLoopDriver()
{
    running_ = false;
    // Lane buffers are only returned to the free list once a request
    // drains; freeing what is back is enough for well-drained runs
    // and harmless otherwise (MemorySpace reclaims with the node).
    for (sim::Addr buffer : free_buffers_)
        host_.memory().free(buffer);
}

void
OpenLoopDriver::start()
{
    assert(device_.capacity() >= config_.io_bytes &&
           "device must be connected before start()");
    blocks_ = device_.capacity() / config_.io_bytes;
    running_ = true;
    sim::spawn(generate());
}

double
OpenLoopDriver::currentRate() const
{
    const double mean = config_.offered_iops;
    switch (config_.process) {
      case ArrivalProcess::Poisson:
        return mean;
      case ArrivalProcess::Bursty: {
        const sim::Tick period = config_.burst_on + config_.burst_off;
        const sim::Tick phase = host_.sim().now() % period;
        return phase < config_.burst_on ? mean * config_.burst_factor
                                        : mean * config_.idle_factor;
      }
      case ArrivalProcess::Diurnal: {
        const sim::Tick period = config_.diurnal_period;
        const double phase =
            static_cast<double>(host_.sim().now() % period) /
            static_cast<double>(period);
        const double swing =
            1.0 + config_.diurnal_amplitude *
                      std::sin(2.0 * 3.14159265358979323846 * phase);
        // Never let the rate hit zero: the generator paces itself by
        // sampling gaps at the instantaneous rate.
        return std::max(mean * 0.01, mean * swing);
      }
    }
    return mean;
}

sim::Task<>
OpenLoopDriver::generate()
{
    while (running_) {
        // Rate-modulated Poisson: exponential gap at the rate in
        // force *now*. (For the modulated processes this slightly
        // smears phase edges — one gap can straddle them — which is
        // fine: the processes are load shapes, not exact NHPPs.)
        const double mean_gap_ns = 1e9 / currentRate();
        const double gap = rng_.exponential(mean_gap_ns);
        co_await host_.sim().sleep(std::max<sim::Tick>(
            1, static_cast<sim::Tick>(gap)));
        if (!running_)
            break;

        // Every random draw happens here, on the one sequential
        // generator, so the stream is independent of completion
        // interleaving (DESIGN.md §8).
        const uint64_t tenant = zipf_.sample(rng_);
        const bool is_read = rng_.bernoulli(config_.read_fraction);
        const uint64_t offset =
            rng_.uniformInt(0, blocks_ - 1) * config_.io_bytes;

        offered_.increment();
        if (in_system_ >= config_.queue_cap + config_.max_inflight) {
            // The client library's submit queue is full: refuse
            // locally. This is the open-loop pressure valve that
            // keeps the backlog (and the drain) finite.
            overflow_.increment();
            continue;
        }
        ++in_system_;
        sim::spawn(request(tenant, is_read, offset, next_seq_++));
    }
}

sim::Task<>
OpenLoopDriver::request(uint64_t tenant, bool is_read,
                        uint64_t offset, uint64_t seq)
{
    const sim::Tick arrival = host_.sim().now();
    // Wait for a connection-pool lane; this queue is where overload
    // turns into latency when the server does not shed.
    co_await lanes_.acquire(seq);
    queue_wait_.add(static_cast<double>(host_.sim().now() - arrival));

    // Lowest free address: deterministic given the free *set* (see
    // open_loop.hh) — lane grants run in the tick's final band, after
    // every same-tick buffer return has been inserted.
    const sim::Addr buffer = *free_buffers_.begin();
    free_buffers_.erase(free_buffers_.begin());
    const bool ok =
        is_read ? co_await device_.read(offset, config_.io_bytes,
                                        buffer, tenant)
                : co_await device_.write(offset, config_.io_bytes,
                                         buffer, tenant);
    free_buffers_.insert(buffer);
    lanes_.release();

    const sim::Tick elapsed = host_.sim().now() - arrival;
    latency_.add(static_cast<double>(elapsed));
    latency_hist_.add(static_cast<double>(elapsed));
    if (!ok)
        failed_.increment(); // shed (Busy) or error
    else if (elapsed <= config_.deadline)
        goodput_.increment();
    else
        late_.increment();
    ++leaving_;
    markDirty();
}

void
OpenLoopDriver::resetStats()
{
    offered_.reset();
    overflow_.reset();
    failed_.reset();
    late_.reset();
    goodput_.reset();
    latency_.reset();
    latency_hist_.reset();
    queue_wait_.reset();
}

} // namespace v3sim::db
