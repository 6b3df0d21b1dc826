/**
 * @file
 * perfbench: the repository benchmark program.
 *
 * Runs one workload against the simulator through its public APIs
 * (scenarios::Testbed, tpcc::Workload, db::OltpEngine,
 * db::OpenLoopDriver, cluster::DurabilityAudit, sim::MetricRegistry)
 * and reports two clocks:
 *  - host: what the simulator costs its user (setup and run seconds
 *    of wall time, peak resident memory);
 *  - sim: what the modelled V3/DSA stack delivers (IOPS, tpmC,
 *    latency percentiles, host CPU per I/O). Sim metrics are a pure
 *    function of the seed.
 *
 * The database-facing dsa::BlockDevice is wrapped in a
 * RecordingDevice that stamps every I/O's start and end in simulated
 * time, so every latency percentile is computed exactly from all
 * samples, never from the log2 sim::Histogram.
 *
 * A run repeats the workload until --seconds of host time have
 * passed (at least twice): host metrics are the medians over the
 * repetitions, and every repetition must reproduce the first one's
 * sim metrics and registry snapshot byte for byte (the fingerprint
 * check). The last line of standard output is one JSON object with
 * the keys correct, attempted, failed and metrics; --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer metrics and writes
 * a Chrome trace-event file of the first repetition.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --out DIR
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "cluster/write_audit.hh"
#include "db/oltp_engine.hh"
#include "db/open_loop.hh"
#include "scenarios/testbed.hh"
#include "scenarios/tpcc_run.hh"
#include "util/crc32c.hh"
#include "util/json.hh"
#include "util/units.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

using HostClock = std::chrono::steady_clock;

const HostClock::time_point kProcessStart = HostClock::now();

double
hostSecondsSince(HostClock::time_point since)
{
    return std::chrono::duration<double>(HostClock::now() - since)
        .count();
}

// ---------------------------------------------------------------
// Recording device: one span per database-facing I/O, sim time.
// ---------------------------------------------------------------

/** One device I/O as the database saw it (traced runs only). */
struct IoSpan
{
    uint64_t id = 0;
    uint64_t offset = 0;
    uint64_t len = 0;
    sim::Tick start = 0;
    sim::Tick end = 0;
    uint32_t track = 0; ///< lowest lane free at issue, for display
    bool is_write = false;
    bool ok = false;
};

/**
 * Forwards every call to the device underneath unchanged (the
 * tenant-tagged overloads stay tagged) and records its latency while
 * recording is on. It touches neither the simulation's RNG nor its
 * metric registry, so the model runs exactly as without it.
 */
class RecordingDevice : public dsa::BlockDevice
{
  public:
    RecordingDevice(sim::Simulation &sim, dsa::BlockDevice &under,
                    bool keep_spans)
        : sim_(sim), under_(under), keep_spans_(keep_spans)
    {}

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer) override
    {
        return run(offset, len, buffer, false, std::nullopt);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer) override
    {
        return run(offset, len, buffer, true, std::nullopt);
    }

    sim::Task<bool>
    read(uint64_t offset, uint64_t len, sim::Addr buffer,
         uint64_t tenant) override
    {
        return run(offset, len, buffer, false, tenant);
    }

    sim::Task<bool>
    write(uint64_t offset, uint64_t len, sim::Addr buffer,
          uint64_t tenant) override
    {
        return run(offset, len, buffer, true, tenant);
    }

    uint64_t capacity() const override { return under_.capacity(); }

    /** Only I/Os issued while recording count. */
    void setRecording(bool on) { recording_ = on; }

    /** Latencies (ns) of I/Os that returned ok. */
    std::vector<uint64_t> read_ns, write_ns;
    uint64_t issued = 0;
    uint64_t failed = 0;
    std::vector<IoSpan> spans;

  private:
    sim::Task<bool>
    run(uint64_t offset, uint64_t len, sim::Addr buffer, bool is_write,
        std::optional<uint64_t> tenant)
    {
        const bool counted = recording_;
        const sim::Tick start = sim_.now();
        const uint64_t id = next_id_++;
        uint32_t track = 0;
        if (counted) {
            ++issued;
            if (keep_spans_)
                track = takeTrack();
        }
        bool ok = false;
        if (tenant) {
            ok = is_write ? co_await under_.write(offset, len, buffer,
                                                  *tenant)
                          : co_await under_.read(offset, len, buffer,
                                                 *tenant);
        } else {
            ok = is_write ? co_await under_.write(offset, len, buffer)
                          : co_await under_.read(offset, len, buffer);
        }
        if (counted) {
            const sim::Tick end = sim_.now();
            if (!ok)
                ++failed;
            else
                (is_write ? write_ns : read_ns).push_back(end - start);
            if (keep_spans_) {
                spans.push_back(
                    {id, offset, len, start, end, track, is_write, ok});
                free_tracks_.push(track);
            }
        }
        co_return ok;
    }

    uint32_t
    takeTrack()
    {
        if (free_tracks_.empty())
            return next_track_++;
        const uint32_t track = free_tracks_.top();
        free_tracks_.pop();
        return track;
    }

    sim::Simulation &sim_;
    dsa::BlockDevice &under_;
    bool keep_spans_;
    bool recording_ = false;
    uint64_t next_id_ = 0;
    uint32_t next_track_ = 0;
    std::priority_queue<uint32_t, std::vector<uint32_t>,
                        std::greater<>>
        free_tracks_;
};

// ---------------------------------------------------------------
// Host-time phases.
// ---------------------------------------------------------------

struct PhaseSpan
{
    std::string name;
    double start_s = 0; ///< since process start
    double dur_s = 0;
};

/** Times consecutive phases of one repetition in host time. */
class PhaseClock
{
  public:
    PhaseClock() : last_(HostClock::now()) {}

    /** Ends the current phase under @p name and starts the next. */
    void
    mark(const std::string &name)
    {
        const HostClock::time_point now = HostClock::now();
        const double dur =
            std::chrono::duration<double>(now - last_).count();
        spans.push_back(
            {name,
             std::chrono::duration<double>(last_ - kProcessStart)
                 .count(),
             dur});
        totals[name] += dur;
        last_ = now;
    }

    /** Restarts the clock without charging the gap to any phase. */
    void skip() { last_ = HostClock::now(); }

    double
    total(std::initializer_list<const char *> names) const
    {
        double sum = 0;
        for (const char *name : names) {
            const auto it = totals.find(name);
            if (it != totals.end())
                sum += it->second;
        }
        return sum;
    }

    std::vector<PhaseSpan> spans;
    std::map<std::string, double> totals;

  private:
    HostClock::time_point last_;
};

// ---------------------------------------------------------------
// Metric plumbing.
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    std::string clock; ///< "host" or "sim"
    double value = 0;
    /** The paper's figure for this quantity, where it gives one; the
     *  model has no other reference. */
    std::string paper = {};
};

struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

/** Exact nearest-rank quantile over every recorded sample. */
struct Quantile
{
    double value_ns = 0;
    uint64_t samples = 0;
    uint64_t beyond = 0; ///< samples strictly after the rank
};

Quantile
exactQuantile(std::vector<uint64_t> samples, double q)
{
    Quantile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               std::ceil(q * static_cast<double>(samples.size()))));
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<ptrdiff_t>(rank - 1),
                     samples.end());
    out.value_ns = static_cast<double>(samples[rank - 1]);
    out.beyond = samples.size() - rank;
    return out;
}

/** Registry readings summed over every path matching a pattern. */
class Registry
{
  public:
    explicit Registry(sim::MetricRegistry::Snapshot snap)
        : snap_(std::move(snap))
    {}

    /** Sum of counts (counters; sample counts of samplers). */
    uint64_t
    count(const std::string &prefix, const std::string &suffix) const
    {
        uint64_t sum = 0;
        visit(prefix, suffix,
              [&](const sim::MetricRegistry::Value &v) {
                  sum += v.count;
              });
        return sum;
    }

    /** Sum of sampler sums. */
    double
    sum(const std::string &prefix, const std::string &suffix) const
    {
        double total = 0;
        visit(prefix, suffix,
              [&](const sim::MetricRegistry::Value &v) {
                  total += v.sum;
              });
        return total;
    }

    /** Sum of gauge values. */
    double
    gauge(const std::string &prefix, const std::string &suffix) const
    {
        double total = 0;
        visit(prefix, suffix,
              [&](const sim::MetricRegistry::Value &v) {
                  total += v.value;
              });
        return total;
    }

    size_t
    matches(const std::string &prefix, const std::string &suffix) const
    {
        size_t n = 0;
        visit(prefix, suffix,
              [&](const sim::MetricRegistry::Value &) { ++n; });
        return n;
    }

  private:
    template <typename Fn>
    void
    visit(const std::string &prefix, const std::string &suffix,
          Fn fn) const
    {
        for (auto it = snap_.lower_bound(prefix);
             it != snap_.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it) {
            const std::string &path = it->first;
            if (path.size() >= suffix.size() &&
                path.compare(path.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
                fn(it->second);
        }
    }

    sim::MetricRegistry::Snapshot snap_;
};

/**
 * Window readings: counters and samplers as deltas over the window,
 * gauges as their value at the window's end; cumulative gauges
 * (registrations, cache hits) are differenced by the caller through
 * gaugeDelta().
 */
struct Window
{
    sim::MetricRegistry::Snapshot before, after;
    /** The measurement window; after_at is when `after` was taken
     *  (later than end where the counters include a drain). */
    sim::Tick begin = 0, end = 0, after_at = 0;
    /** Interrupts the database host took in the window. */
    double interrupts = 0;
    /** Simulator events fired in the window. */
    uint64_t events = 0;

    Registry
    delta() const
    {
        return Registry(sim::MetricRegistry::delta(before, after));
    }

    double
    gaugeDelta(const std::string &prefix,
               const std::string &suffix) const
    {
        return Registry(after).gauge(prefix, suffix) -
               Registry(before).gauge(prefix, suffix);
    }

    double seconds() const { return sim::toSecs(end - begin); }
};

/** Everything one repetition of a workload produced. */
struct RepResult
{
    PhaseClock phases;
    /** Deterministic results: sim metrics, then per-layer sim
     *  readings. Order is fixed per workload. */
    std::vector<Metric> sim;
    std::vector<Metric> layer;
    /** Simulator events: all phases, the run phases (warmup, window,
     *  drain), and the measurement windows. */
    uint64_t events = 0, run_events = 0, window_events = 0;
    uint64_t ios = 0;       ///< I/Os attempted in the measured windows
    uint64_t failed = 0;    ///< ... that failed unexpectedly
    std::vector<Check> checks;
    /** Registry snapshots (JSON) of every measured window. */
    std::string registry_json;
    std::vector<IoSpan> spans;
};

void
add(std::vector<Metric> &out, const std::string &name,
    const std::string &unit, double value, std::string paper = {})
{
    out.push_back({name, unit, "sim", value, std::move(paper)});
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

// ---------------------------------------------------------------
// Per-layer readings shared by every workload.
// ---------------------------------------------------------------

/** Host CPU accounting over a window: the pool is reset at the
 *  window's start, so its utilization covers exactly the window. */
struct CpuReading
{
    double busy_frac = 0;
    double busy_us = 0;
    std::array<double, osmodel::kCpuCatCount> cat_us{};
};

CpuReading
readCpu(osmodel::Node &host, double window_s)
{
    CpuReading out;
    const osmodel::CpuPool &cpus = host.cpus();
    const double capacity_us =
        static_cast<double>(cpus.cpus()) * window_s * 1e6;
    out.busy_frac = cpus.utilization();
    out.busy_us = out.busy_frac * capacity_us;
    for (size_t c = 0; c < osmodel::kCpuCatCount; ++c)
        out.cat_us[c] =
            cpus.utilization(static_cast<osmodel::CpuCat>(c)) *
            capacity_us;
    return out;
}

/** Mean latency, exact percentiles and their sample counts; an op
 *  the workload never issues reads 0. */
void
addLatency(RepResult &rep, const RecordingDevice &dev)
{
    const auto report = [&rep](const char *op,
                               const std::vector<uint64_t> &ns) {
        double sum = 0;
        for (const uint64_t v : ns)
            sum += static_cast<double>(v);
        add(rep.sim, std::string(op) + "_mean_us", "us",
            ratio(sum, static_cast<double>(ns.size())) / 1e3);
        if (ns.empty()) {
            for (const char *tag : {"_p50_us", "_p99_us", "_samples"})
                add(rep.sim, std::string(op) + tag,
                    tag[1] == 's' ? "count" : "us", 0);
            return;
        }
        for (const auto &[q, tag] :
             {std::pair{0.50, "p50"}, std::pair{0.99, "p99"}}) {
            const Quantile qv = exactQuantile(ns, q);
            add(rep.sim, std::string(op) + "_" + tag + "_us", "us",
                qv.value_ns / 1e3);
            if (q == 0.99) {
                add(rep.sim, std::string(op) + "_samples", "count",
                    static_cast<double>(qv.samples));
                rep.checks.push_back(
                    {std::string(op) + "_p99_has_10_beyond",
                     qv.beyond >= 10,
                     std::to_string(qv.beyond) + " of " +
                         std::to_string(qv.samples) +
                         " samples beyond p99"});
            }
        }
    };
    report("read", dev.read_ns);
    report("write", dev.write_ns);
}

/** Server admission gates, summed over every storage node. */
struct Admission
{
    double wait_us = 0;
    double shed_frac = 0;
};

Admission
readAdmission(const Registry &d)
{
    const double shed =
        static_cast<double>(d.count("", ".admission_shed"));
    const double admitted =
        static_cast<double>(d.count("", ".admission_admitted"));
    return {ratio(d.sum("", ".admission_wait_ns"),
                  static_cast<double>(
                      d.count("", ".admission_wait_ns"))) /
                1e3,
            ratio(shed, shed + admitted)};
}

/** Layer metrics read from the registry over @p w. @p ios is the
 *  database-facing I/O count the per-I/O ratios divide by. */
void
addLayers(RepResult &rep, const Window &w, const CpuReading &cpu,
          double ios)
{
    const Registry d = w.delta();
    const Registry at_end(w.after);
    auto &L = rep.layer;

    // osmodel
    add(L, "osmodel.cpu_busy_frac", "fraction", cpu.busy_frac);
    static constexpr const char *kCat[osmodel::kCpuCatCount] = {
        "sql", "kernel", "lock", "dsa", "vi", "other"};
    for (size_t c = 0; c < osmodel::kCpuCatCount; ++c)
        add(L, std::string("osmodel.cpu_us_per_io.") + kCat[c], "us",
            ratio(cpu.cat_us[c], ios));
    add(L, "osmodel.interrupts_per_io", "count", ratio(w.interrupts, ios));

    // dsa (VI clients; absent on iSCSI)
    const double polled =
        static_cast<double>(d.count("client.", ".polled_completions"));
    const double intr =
        static_cast<double>(d.count("client.", ".intr_completions"));
    add(L, "dsa.ios", "count",
        static_cast<double>(d.count("client.cdsa", ".ios") +
                            d.count("client.kdsa", ".ios") +
                            d.count("client.wdsa", ".ios")));
    add(L, "dsa.retransmits", "count",
        static_cast<double>(d.count("client.", ".retransmits")));
    add(L, "dsa.poll_hit_ratio", "fraction",
        ratio(polled, polled + intr));
    add(L, "dsa.busy", "count",
        static_cast<double>(d.count("client.cdsa", ".busy") +
                            d.count("client.kdsa", ".busy") +
                            d.count("client.wdsa", ".busy")));

    // vi
    add(L, "vi.packets_per_io", "count",
        ratio(static_cast<double>(d.count("nic.", ".packets_sent")),
              ios));
    add(L, "vi.registrations_per_io", "count",
        ratio(w.gaugeDelta("nic.", ".mem_registry.registrations"), ios));
    add(L, "vi.deregistrations_per_io", "count",
        ratio(w.gaugeDelta("nic.", ".mem_registry.deregistrations"),
              ios));

    // net + iscsi: TCP streams of both ends live under the initiator
    // and target prefixes; the host's stack CPU under the initiator's.
    add(L, "net.tcp.segs_per_io", "count",
        ratio(static_cast<double>(d.count("iscsi.", ".tcp.segs_tx")),
              ios));
    add(L, "net.tcp.acks_per_io", "count",
        ratio(static_cast<double>(d.count("iscsi.", ".tcp.acks_tx")),
              ios));
    add(L, "net.tcp.retransmits", "count",
        static_cast<double>(d.count("iscsi.", ".tcp.retransmits")));
    for (const char *part : {"intr", "proto", "copy", "crc", "syscall"})
        add(L, std::string("iscsi.cpu_us_per_io.") + part, "us",
            ratio(static_cast<double>(d.count(
                      "iscsi.init", std::string(".cpu.") + part + "_ns")) /
                      1e3,
                  ios));

    // storage
    const double hits = w.gaugeDelta("", ".cache.hits");
    const double misses = w.gaugeDelta("", ".cache.misses");
    add(L, "storage.cache_hit_ratio", "fraction",
        ratio(hits, hits + misses));
    add(L, "storage.server_us", "us",
        ratio(d.sum("", ".server_time_ns"),
              static_cast<double>(d.count("", ".server_time_ns"))) /
            1e3);
    const Admission admission = readAdmission(d);
    add(L, "storage.admission_wait_us", "us", admission.wait_us);
    add(L, "storage.admission_shed_frac", "fraction",
        admission.shed_frac);

    // disk
    const double disk_ios =
        static_cast<double>(d.count("disk.", ".completed"));
    const double service_ns = d.sum("disk.", ".service_ns");
    const double latency_ns = d.sum("disk.", ".latency_ns");
    const double disks =
        static_cast<double>(at_end.matches("disk.", ".completed"));
    add(L, "disk.ios", "count", disk_ios);
    add(L, "disk.busy_frac", "fraction",
        ratio(service_ns,
              disks * static_cast<double>(w.after_at - w.begin)));
    add(L, "disk.service_us", "us", ratio(service_ns, disk_ios) / 1e3);
    add(L, "disk.queue_us", "us",
        ratio(latency_ns - service_ns, disk_ios) / 1e3);

    // cluster + MirroredDevice
    add(L, "cluster.failovers", "count",
        static_cast<double>(d.count("mirror", ".failovers")));
    add(L, "cluster.stale_redirects", "count",
        static_cast<double>(d.count("", ".stale_redirects")));
    add(L, "cluster.resync_bytes", "bytes",
        static_cast<double>(d.count("mirror", ".resync_bytes")));
    add(L, "cluster.resync_ms", "ms",
        d.sum("mirror", ".resync_time_ns") / 1e6);
    add(L, "cluster.degraded_writes", "count",
        static_cast<double>(d.count("mirror", ".degraded_writes")));
    add(L, "cluster.meta_commits", "count",
        static_cast<double>(d.count("meta", ".commits")));
}

std::string
registryJson(const Window &w)
{
    return sim::MetricRegistry::toJson(
        sim::MetricRegistry::delta(w.before, w.after));
}

/** Runs the simulation to @p until with @p dev recording, and
 *  snapshots the registry at both ends. */
Window
measure(Testbed &bed, RecordingDevice &dev, sim::Tick until)
{
    sim::Simulation &sim = bed.sim();
    Window w;
    w.begin = sim.now();
    w.before = sim.metrics().snapshot();
    const uint64_t intr_before = bed.hostInterrupts();
    const uint64_t events_before = sim.queue().firedCount();
    dev.setRecording(true);
    sim.runUntil(until);
    dev.setRecording(false);
    w.end = w.after_at = sim.now();
    w.after = sim.metrics().snapshot();
    w.interrupts =
        static_cast<double>(bed.hostInterrupts() - intr_before);
    w.events = sim.queue().firedCount() - events_before;
    return w;
}

/** A closed loop's I/O accounting, its every-I/O-ok check and its
 *  deterministic record. */
void
finishClosedLoop(RepResult &rep, RecordingDevice &dev, const Window &w,
                 uint64_t setup_events)
{
    rep.run_events = rep.events - setup_events;
    rep.window_events = w.events;
    rep.ios = dev.issued;
    rep.failed = dev.failed;
    rep.checks.push_back(
        {"closed_loop_ios_ok", dev.failed == 0 && dev.issued > 0,
         std::to_string(dev.failed) + " of " +
             std::to_string(dev.issued) + " failed"});
    rep.registry_json = registryJson(w);
    rep.spans = std::move(dev.spans);
}

// ---------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------

struct WorkloadSpec
{
    const char *name;
    /** One repetition; with setup_only it returns after set-up. */
    std::function<RepResult(uint64_t seed, bool traced,
                            bool setup_only)>
        run;
    /** Optional cross-check of a traced repetition against the
     *  program's own harness. */
    std::function<Check(uint64_t seed, const RepResult &rep)> verify;
};

/** Runs scenarios::runTpcc's configuration step by step, with the
 *  recording device between the engine and the testbed. */
RepResult
tpccLarge(uint64_t seed, bool traced, bool setup_only)
{
    RepResult rep;
    PhaseClock &clock = rep.phases;

    // Same platform, DSA and workload settings as scenarios::runTpcc
    // for (Cdsa, Large).
    HostParams host = HostParams::large();
    host.phantom_memory = true;
    dsa::DsaConfig dsa_config;
    dsa_config.opts = dsa::DsaOptimizations::all();
    dsa_config.poll_interval = sim::usecs(25);
    dsa_config.poll_timeout = sim::msecs(50);
    dsa_config.costs.poll_check = sim::nsecs(200);
    const StorageParams storage = StorageParams::large();
    const sim::Tick warmup = sim::msecs(300);
    const sim::Tick window = sim::msecs(1500);

    Testbed bed(Backend::Cdsa, host, storage, dsa_config, seed);
    sim::Simulation &sim = bed.sim();
    clock.mark("build");
    const bool connected = bed.connectAll();
    clock.mark("connect");
    rep.checks.push_back({"connect", connected, ""});
    if (!connected)
        return rep;

    RecordingDevice dev(sim, bed.device(), traced);
    const tpcc::TpccConfig wl_config = platformWorkload(Platform::Large);
    tpcc::Workload workload(wl_config, dev.capacity(), sim.forkRng());

    // Warm-start the caches with the hot set, as runTpcc does.
    std::vector<storage::BlockCache *> caches = bed.caches();
    uint64_t cache_blocks = 0;
    for (storage::BlockCache *cache : caches) {
        const uint64_t hot_pages =
            static_cast<uint64_t>(
                static_cast<double>(workload.workingSetBytes()) *
                wl_config.hot_space_fraction) /
            wl_config.page_size;
        const uint64_t fill =
            std::min(hot_pages / static_cast<uint64_t>(caches.size()),
                     cache->capacityBlocks());
        for (uint64_t b = 0; b < fill; ++b) {
            const storage::CacheKey key{0, b};
            if (auto frame = cache->insertAndPin(key))
                cache->unpin(key);
        }
        cache->resetStats();
        cache_blocks += cache->capacityBlocks();
    }
    clock.mark("warm");
    const uint64_t setup_events = sim.queue().firedCount();
    if (setup_only)
        return rep;

    db::OltpEngine engine(bed.host(), dev, workload,
                          platformEngine(Platform::Large, Backend::Cdsa));
    // OltpEngine::run(warmup, window), phase by phase.
    engine.start();
    sim.runUntil(sim.now() + warmup);
    engine.resetStats();
    clock.mark("warmup");

    const Window w = measure(bed, dev, sim.now() + window);
    const double minutes = w.seconds() / 60.0;
    const double tpmc =
        static_cast<double>(engine.newOrderCount()) / minutes;
    const double committed =
        static_cast<double>(engine.committedCount());
    const double engine_ios = static_cast<double>(engine.ioCount());
    const double txn_mean_ms = engine.txnLatency().mean() / 1e6;
    const CpuReading cpu = readCpu(bed.host(), w.seconds());
    const double hit_ratio = bed.serverCacheHitRatio();
    clock.mark("window");

    engine.stop();
    sim.run();
    clock.mark("drain");
    rep.events = sim.queue().firedCount();

    const double ios = static_cast<double>(dev.issued);
    add(rep.sim, "tpmc", "1/min", tpmc);
    add(rep.sim, "iops", "1/s", ratio(ios, w.seconds()));
    addLatency(rep, dev);
    add(rep.sim, "cpu_us_per_io", "us", ratio(cpu.busy_us, ios));
    add(rep.sim, "anchor.server_cache_hit_ratio", "fraction",
        hit_ratio, "V3 cache read hit ratio 0.40-0.45 (section 6)");
    add(rep.sim, "anchor.working_set_mib", "MiB",
        static_cast<double>(workload.workingSetBytes()) /
            static_cast<double>(util::kMiB));
    add(rep.sim, "anchor.cache_mib", "MiB",
        static_cast<double>(cache_blocks * wl_config.page_size) /
            static_cast<double>(util::kMiB));

    add(rep.layer, "db.ios_per_txn", "count",
        ratio(engine_ios, committed));
    add(rep.layer, "db.txn_mean_ms", "ms", txn_mean_ms);
    add(rep.layer, "db.queue_wait_us", "us", 0);
    add(rep.layer, "db.overflow", "count", 0);
    addLayers(rep, w, cpu, ios);
    finishClosedLoop(rep, dev, w, setup_events);
    return rep;
}

/** Section 5 micro rig: one client, one V3 node, 512 MiB cache,
 *  two outstanding random 8 KB reads over a warmed region. */
RepResult
cachedRead(uint64_t seed, bool traced, bool setup_only)
{
    RepResult rep;
    PhaseClock &clock = rep.phases;
    constexpr uint64_t kCache = 512 * util::kMiB;
    constexpr uint64_t kRegion = 64 * util::kMiB;
    constexpr uint64_t kIo = 8 * util::kKiB;
    constexpr uint64_t kWarmIo = 64 * util::kKiB;
    constexpr int kOutstanding = 2;
    // Each client issues its reads back to back. The first starts at
    // once, the second after a seed-drawn skew of up to one lockstep
    // response time (192 us), so the seed picks the streams' relative
    // phase. Started in the same tick, the streams would stay in
    // lockstep and collide on every request, and every seed would give
    // the same result.
    const sim::Tick max_skew = sim::usecs(200);
    const sim::Tick warmup = sim::msecs(50);
    const sim::Tick window = sim::msecs(2000);

    StorageParams storage;
    storage.v3_nodes = 1;
    storage.disks_per_node = 8;
    storage.disk_spec = disk::DiskSpec::scsi10k();
    storage.cache_bytes_per_node = kCache;
    Testbed bed(Backend::Cdsa, HostParams::midSize(), storage, {},
                seed);
    sim::Simulation &sim = bed.sim();
    const sim::Addr buffers =
        bed.host().memory().allocate(kOutstanding * kWarmIo);
    clock.mark("build");
    const bool connected = bed.connectAll();
    clock.mark("connect");
    rep.checks.push_back({"connect", connected, ""});
    if (!connected)
        return rep;

    // One sequential sweep loads every block of the region.
    uint64_t warm_failed = 0;
    for (int s = 0; s < kOutstanding; ++s) {
        sim::spawn([](dsa::BlockDevice &device, sim::Addr buf,
                      uint64_t first, uint64_t &bad) -> sim::Task<> {
            for (uint64_t off = first; off < kRegion;
                 off += kOutstanding * kWarmIo) {
                if (!co_await device.read(off, kWarmIo, buf))
                    ++bad;
            }
        }(bed.device(), buffers + static_cast<uint64_t>(s) * kWarmIo,
          static_cast<uint64_t>(s) * kWarmIo, warm_failed));
    }
    sim.run();
    rep.checks.push_back({"warm_ios_ok", warm_failed == 0, ""});
    clock.mark("warm");
    const uint64_t setup_events = sim.queue().firedCount();
    if (setup_only)
        return rep;

    RecordingDevice dev(sim, bed.device(), traced);
    bool stop = false;
    sim::Rng rng(seed);
    for (int s = 0; s < kOutstanding; ++s) {
        const sim::Tick skew = s == 0 ? 0 : rng.uniformInt(0, max_skew);
        sim::spawn([](sim::Simulation &sm, RecordingDevice &device,
                      sim::Addr buf, sim::Rng r, sim::Tick start,
                      bool &halt) -> sim::Task<> {
            co_await sm.sleep(start);
            while (!halt) {
                const uint64_t block =
                    r.uniformInt(0, kRegion / kIo - 1);
                co_await device.read(block * kIo, kIo, buf);
            }
        }(sim, dev, buffers + static_cast<uint64_t>(s) * kWarmIo,
          rng.fork(), skew, stop));
    }
    sim.runUntil(sim.now() + warmup);
    clock.mark("warmup");

    bed.resetStats();
    const Window w = measure(bed, dev, sim.now() + window);
    const CpuReading cpu = readCpu(bed.host(), w.seconds());
    clock.mark("window");
    stop = true;
    sim.run();
    clock.mark("drain");
    rep.events = sim.queue().firedCount();

    const double ios = static_cast<double>(dev.issued);
    add(rep.sim, "iops", "1/s", ratio(ios, w.seconds()));
    addLatency(rep, dev);
    add(rep.sim, "cpu_us_per_io", "us", ratio(cpu.busy_us, ios));
    add(rep.sim, "anchor.read_mb_per_s", "MB/s",
        ratio(ios * static_cast<double>(kIo), w.seconds()) / 1e6,
        "cached-read ceiling ~110 MB/s at many outstanding (Fig 6)");
    add(rep.sim, "anchor.working_set_mib", "MiB",
        static_cast<double>(kRegion) / static_cast<double>(util::kMiB));
    add(rep.sim, "anchor.cache_mib", "MiB",
        static_cast<double>(kCache) / static_cast<double>(util::kMiB));

    add(rep.layer, "db.ios_per_txn", "count", 0);
    add(rep.layer, "db.txn_mean_ms", "ms", 0);
    add(rep.layer, "db.queue_wait_us", "us", 0);
    add(rep.layer, "db.overflow", "count", 0);
    addLayers(rep, w, cpu, ios);
    finishClosedLoop(rep, dev, w, setup_events);
    return rep;
}

/**
 * Open-loop ladder on the iSCSI/TCP rival transport: a fresh testbed
 * per offered rate (as abl_overload runs its phases), 1M Zipf-0.99
 * tenants, Poisson arrivals, 70/30 8 KB, 100 ms deadline, admission
 * gate on. Latency, CPU and the per-layer readings come from the
 * reference rate below the knee; goodput and the shed path from the
 * overload point.
 */
RepResult
openloopIscsi(uint64_t seed, bool traced, bool setup_only)
{
    RepResult rep;
    PhaseClock &clock = rep.phases;
    static constexpr double kLadder[] = {500, 1000, 1250, 1500, 15000};
    constexpr double kReference = 1000;
    constexpr double kOverload = 15000;
    constexpr double kSloFraction = 0.99;
    const sim::Tick deadline = sim::msecs(100);
    // The reference window holds over 1,000 writes, so at least ten
    // samples lie beyond every p99.
    const sim::Tick window = sim::msecs(2000);
    const sim::Tick reference_window = sim::msecs(5000);
    const sim::Tick drain_cap = sim::msecs(8000);

    double slo_iops = 0;
    Admission overload;
    for (const double rate : kLadder) {
        // The previous point's teardown is not set-up time.
        clock.skip();
        StorageParams storage;
        storage.v3_nodes = 2;
        storage.disks_per_node = 4;
        storage.disk_spec = disk::DiskSpec::scsi10k();
        storage.cache_bytes_per_node = 4 * util::kMiB;
        storage.admission.enabled = true;
        storage.admission.service_slots = 16;
        storage.admission.max_queue_depth = 16;
        storage.admission.drr_quantum = 64 * util::kKiB;
        Testbed bed(Backend::Iscsi, HostParams::midSize(), storage, {},
                    seed);
        sim::Simulation &sim = bed.sim();
        clock.mark("build");
        const bool connected = bed.connectAll();
        clock.mark("connect");
        rep.checks.push_back({"connect", connected, ""});
        if (!connected)
            return rep;
        if (setup_only)
            continue;

        const bool reference = rate == kReference;
        RecordingDevice dev(sim, bed.device(), traced && reference);
        db::OpenLoopConfig load;
        load.tenants = 1'000'000;
        load.zipf_theta = 0.99;
        load.process = db::ArrivalProcess::Poisson;
        load.offered_iops = rate;
        load.read_fraction = 0.7;
        load.io_bytes = 8192;
        load.deadline = deadline;
        db::OpenLoopDriver arrivals(bed.host(), dev, load, sim.forkRng());

        // No warmup: counting from the first arrival keeps the
        // disposition balance exact.
        Window w;
        bed.resetStats();
        w.begin = sim.now();
        w.before = sim.metrics().snapshot();
        const uint64_t intr_before = bed.hostInterrupts();
        const uint64_t setup_events = sim.queue().firedCount();
        dev.setRecording(true);
        arrivals.start();
        sim.runUntil(w.begin + (reference ? reference_window : window));
        arrivals.stop();
        w.end = sim.now();
        const CpuReading cpu = readCpu(bed.host(), w.seconds());
        w.interrupts =
            static_cast<double>(bed.hostInterrupts() - intr_before);
        rep.window_events += sim.queue().firedCount() - setup_events;
        clock.mark("window");
        const sim::Tick cap = w.end + drain_cap;
        while (arrivals.inSystem() > 0 && sim.now() < cap)
            sim.runUntil(sim.now() + sim::msecs(20));
        dev.setRecording(false);
        // Counters over the whole window plus drain, so every
        // arrival's disposition is in.
        w.after = sim.metrics().snapshot();
        w.after_at = sim.now();
        clock.mark("drain");
        rep.events += sim.queue().firedCount();
        rep.run_events += sim.queue().firedCount() - setup_events;

        uint64_t shed = 0;
        for (const auto &target : bed.iscsiTargets())
            shed += target->shedCount();
        const uint64_t offered = arrivals.offeredCount();
        const uint64_t goodput = arrivals.goodputCount();
        const uint64_t disposed = arrivals.overflowCount() +
                                  arrivals.failedCount() +
                                  arrivals.lateCount() + goodput;
        const std::string tag =
            "rate_" + std::to_string(static_cast<uint64_t>(rate));
        rep.checks.push_back(
            {tag + "_disposition_balance",
             arrivals.inSystem() == 0 && disposed == offered,
             std::to_string(offered) + " offered, " +
                 std::to_string(disposed) + " disposed"});
        // Shed requests fail by design; anything else failing is a
        // fault.
        const uint64_t unexpected =
            arrivals.failedCount() > shed ? arrivals.failedCount() - shed
                                        : 0;
        rep.checks.push_back(
            {tag + "_only_sheds_fail", unexpected == 0,
             std::to_string(arrivals.failedCount()) + " failed, " +
                 std::to_string(shed) + " shed"});
        rep.ios += dev.issued;
        rep.failed += unexpected;
        const double on_time =
            ratio(static_cast<double>(goodput),
                  static_cast<double>(offered));
        if (on_time >= kSloFraction)
            slo_iops = std::max(slo_iops, rate);
        add(rep.layer, "openloop." + tag + ".on_time_frac", "fraction",
            on_time);
        rep.registry_json += registryJson(w);

        if (reference) {
            const double ios = static_cast<double>(dev.issued);
            addLatency(rep, dev);
            add(rep.sim, "cpu_us_per_io", "us", ratio(cpu.busy_us, ios));
            addLayers(rep, w, cpu, ios);
            rep.spans = std::move(dev.spans);
        }
        if (rate == kOverload) {
            const double seconds = w.seconds();
            add(rep.sim, "iops", "1/s",
                ratio(static_cast<double>(goodput + arrivals.lateCount()),
                      seconds));
            add(rep.sim, "goodput_iops", "1/s",
                ratio(static_cast<double>(goodput), seconds));
            add(rep.sim, "failed_frac", "fraction",
                ratio(static_cast<double>(arrivals.failedCount() +
                                          arrivals.overflowCount()),
                      static_cast<double>(offered)));
            overload = readAdmission(w.delta());
            add(rep.layer, "db.queue_wait_us", "us",
                arrivals.queueWait().mean() / 1e3);
            add(rep.layer, "db.overflow", "count",
                static_cast<double>(arrivals.overflowCount()));
        }
    }
    add(rep.sim, "slo_iops", "1/s", slo_iops);
    // The overload point owns the admission readings.
    for (Metric &m : rep.layer) {
        if (m.name == "storage.admission_wait_us")
            m.value = overload.wait_us;
        else if (m.name == "storage.admission_shed_frac")
            m.value = overload.shed_frac;
    }
    add(rep.layer, "db.ios_per_txn", "count", 0);
    add(rep.layer, "db.txn_mean_ms", "ms", 0);
    return rep;
}

/**
 * Closed-loop OLTP on the mirrored cluster testbed (abl_cluster's
 * scripted phase): the last data node fail-stops and restarts at
 * fixed simulated times while every write is duplicated; failover,
 * redirect and resync compete with foreground I/O, and
 * cluster::DurabilityAudit reads every written block back from both
 * replicas at quiesce.
 */
RepResult
clusterFailover(uint64_t seed, bool traced, bool setup_only)
{
    RepResult rep;
    PhaseClock &clock = rep.phases;
    constexpr int kNodes = 16;
    constexpr int kDisksPerNode = 6;
    constexpr int kWorkers = 32;
    constexpr uint32_t kWarehouses = 96;
    const sim::Tick warmup = sim::msecs(200);
    const sim::Tick window_end = sim::msecs(2400);
    const sim::Tick crash = sim::msecs(600);
    const sim::Tick restart = sim::msecs(1200);

    // Heartbeats (2 ms probes, 3 misses) drive failover long before
    // the DSA client's own retransmit/reconnect budget runs out.
    dsa::DsaConfig dsa_config;
    dsa_config.retransmit_timeout = sim::msecs(20);
    dsa_config.max_retransmits = 2;
    dsa_config.reconnect_delay = sim::msecs(2);
    dsa_config.max_reconnect_attempts = 3;
    dsa_config.connect_timeout = sim::msecs(8);
    StorageParams storage;
    storage.v3_nodes = kNodes;
    storage.disks_per_node = kDisksPerNode;
    storage.cache_bytes_per_node = 8 * util::kMiB;
    storage.mirrored = true;
    storage.mirror.probe_interval = sim::msecs(5);
    storage.cluster = true;
    Testbed bed(Backend::Cdsa, HostParams::midSize(), storage,
                dsa_config, seed);
    sim::Simulation &sim = bed.sim();
    clock.mark("build");
    const bool connected = bed.connectAll();
    clock.mark("connect");
    rep.checks.push_back({"connect", connected, ""});
    if (!connected)
        return rep;

    cluster::DurabilityAudit audit(sim, bed.host().memory(),
                                   bed.device(), 8192);
    RecordingDevice dev(sim, audit, traced);
    tpcc::TpccConfig tpcc_config;
    tpcc_config.warehouses = kWarehouses;
    tpcc_config.bytes_per_warehouse = util::kMiB;
    tpcc::Workload workload(tpcc_config, dev.capacity(), sim.forkRng());
    db::OltpConfig oltp_config;
    oltp_config.workers = kWorkers;
    oltp_config.polling_completion = true;
    db::OltpEngine engine(bed.host(), dev, workload, oltp_config);
    bed.faults().scheduleNodeOutage(crash, restart,
                                    *bed.nodeTargets().back());
    clock.mark("warm");
    const uint64_t setup_events = sim.queue().firedCount();
    if (setup_only)
        return rep;

    // runUntil() throughout: the cluster control loops never let a
    // full Simulation::run() drain terminate.
    engine.start();
    sim.runUntil(warmup);
    engine.resetStats();
    clock.mark("warmup");

    const Window w = measure(bed, dev, window_end);
    const double tpmc = static_cast<double>(engine.newOrderCount()) /
                        (w.seconds() / 60.0);
    const double committed =
        static_cast<double>(engine.committedCount());
    const double engine_ios = static_cast<double>(engine.ioCount());
    const double txn_mean_ms = engine.txnLatency().mean() / 1e6;
    const CpuReading cpu = readCpu(bed.host(), w.seconds());
    clock.mark("window");

    // Drain in-flight transactions, then quiesce: every leg
    // readmitted and every dirty log replayed, under a hard cap.
    engine.stop();
    sim.runUntil(sim.now() + sim::msecs(200));
    auto whole = [&bed] {
        for (const auto &mirror : bed.mirrors()) {
            if (mirror->degraded() || mirror->dirtyBytes() > 0)
                return false;
        }
        return true;
    };
    const sim::Tick quiesce_cap = sim.now() + sim::msecs(5000);
    while (!whole() && sim.now() < quiesce_cap)
        sim.runUntil(sim.now() + sim::msecs(10));
    clock.mark("drain");
    // The audit below is a check, not part of the workload.
    rep.events = sim.queue().firedCount();

    bed.directory()->stopControl();
    bool audit_done = false, audit_clean = false;
    sim::spawn([](cluster::DurabilityAudit &a, bool &done,
                  bool &clean) -> sim::Task<> {
        clean = co_await a.audit(2);
        done = true;
    }(audit, audit_done, audit_clean));
    const sim::Tick audit_cap = sim.now() + sim::msecs(20000);
    while (!audit_done && sim.now() < audit_cap)
        sim.runUntil(sim.now() + sim::msecs(50));
    clock.skip();

    uint64_t failovers = 0, readmits = 0;
    for (const auto &mirror : bed.mirrors()) {
        failovers += mirror->failoverCount();
        readmits += mirror->readmitCount();
    }
    rep.checks.push_back({"mirrors_whole_at_quiesce", whole(), ""});
    rep.checks.push_back(
        {"durability_audit",
         audit_done && audit_clean && audit.lostBlocks() == 0 &&
             audit.foreignBlocks() == 0 && audit.auditedBlocks() > 0,
         std::to_string(audit.auditedBlocks()) + " blocks, " +
             std::to_string(audit.lostBlocks()) + " lost, " +
             std::to_string(audit.foreignBlocks()) + " foreign"});
    rep.checks.push_back({"crash_failed_over_and_readmitted",
                          failovers >= 1 && readmits >= 1,
                          std::to_string(failovers) + " failovers, " +
                              std::to_string(readmits) + " readmits"});

    const double ios = static_cast<double>(dev.issued);
    add(rep.sim, "tpmc", "1/min", tpmc);
    add(rep.sim, "iops", "1/s", ratio(ios, w.seconds()));
    addLatency(rep, dev);
    add(rep.sim, "cpu_us_per_io", "us", ratio(cpu.busy_us, ios));

    add(rep.layer, "db.ios_per_txn", "count",
        ratio(engine_ios, committed));
    add(rep.layer, "db.txn_mean_ms", "ms", txn_mean_ms);
    add(rep.layer, "db.queue_wait_us", "us", 0);
    add(rep.layer, "db.overflow", "count", 0);
    addLayers(rep, w, cpu, ios);
    finishClosedLoop(rep, dev, w, setup_events);
    return rep;
}

/** The recording device must not perturb the model: the same seed
 *  through scenarios::runTpcc gives the same tpmC and event count. */
Check
verifyTpccLarge(uint64_t seed, const RepResult &rep)
{
    TpccRunConfig config;
    config.backend = Backend::Cdsa;
    config.platform = Platform::Large;
    config.seed = seed;
    const TpccRunResult base = runTpcc(config);
    double tpmc = -1;
    for (const Metric &m : rep.sim) {
        if (m.name == "tpmc")
            tpmc = m.value;
    }
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "runTpcc %.0f tpmC / %llu events, wrapped %.0f / %llu",
                  base.oltp.tpmc,
                  static_cast<unsigned long long>(base.events_fired),
                  tpmc, static_cast<unsigned long long>(rep.events));
    return {"recorder_does_not_perturb_model",
            base.oltp.tpmc == tpmc && base.events_fired == rep.events,
            detail};
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"tpcc_large", tpccLarge, verifyTpccLarge},
        {"cached_read", cachedRead, {}},
        {"openloop_iscsi", openloopIscsi, {}},
        {"cluster_failover", clusterFailover, {}},
    };
    return specs;
}

// ---------------------------------------------------------------
// Output.
// ---------------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

/** Canonical text of a repetition's deterministic results. */
std::string
canonical(const RepResult &rep)
{
    util::JsonWriter w;
    w.beginObject();
    for (const auto *list : {&rep.sim, &rep.layer}) {
        for (const Metric &m : *list)
            w.key(m.name).value(m.value);
    }
    w.key("events").value(rep.events);
    w.key("run_events").value(rep.run_events);
    w.key("window_events").value(rep.window_events);
    w.key("ios").value(rep.ios);
    w.key("failed").value(rep.failed);
    w.endObject();
    return w.str() + "\n" + rep.registry_json;
}

/** Chrome trace-event JSON: device I/Os on pid 1 (sim time), host
 *  phases on pid 2 (host time). */
bool
writeTrace(const std::string &path, const RepResult &rep,
           const std::string &workload)
{
    util::JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();
    using Process = std::pair<int64_t, std::string>;
    for (const auto &[pid, name] :
         {Process{1, workload + " device I/O (sim time)"},
          Process{2, workload + " phases (host time)"}}) {
        w.beginObject();
        w.key("ph").value("M").key("name").value("process_name");
        w.key("pid").value(pid).key("tid").value(int64_t{0});
        w.key("args").beginObject().key("name").value(name).endObject();
        w.endObject();
    }
    for (const IoSpan &s : rep.spans) {
        w.beginObject();
        w.key("ph").value("X");
        w.key("name").value(s.is_write ? "write" : "read");
        w.key("cat").value("io");
        w.key("pid").value(int64_t{1});
        w.key("tid").value(static_cast<uint64_t>(s.track));
        w.key("ts").value(static_cast<double>(s.start) / 1e3);
        w.key("dur").value(static_cast<double>(s.end - s.start) / 1e3);
        w.key("args").beginObject();
        w.key("id").value(s.id);
        w.key("op").value(s.is_write ? "write" : "read");
        w.key("offset").value(s.offset);
        w.key("len").value(s.len);
        w.key("ok").value(s.ok);
        w.endObject();
        w.endObject();
    }
    for (const PhaseSpan &p : rep.phases.spans) {
        w.beginObject();
        w.key("ph").value("X");
        w.key("name").value(p.name);
        w.key("cat").value("phase");
        w.key("pid").value(int64_t{2});
        w.key("tid").value(int64_t{0});
        w.key("ts").value(p.start_s * 1e6);
        w.key("dur").value(p.dur_s * 1e6);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << w.str() << '\n';
    return static_cast<bool>(out);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out DIR\n"
                 "workloads:");
    for (const WorkloadSpec &spec : workloads())
        std::fprintf(stderr, " %s", spec.name);
    std::fprintf(stderr, "\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir;
    uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(value);
        else if (flag == "--out")
            out_dir = value;
        else {
            usage();
            return 2;
        }
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workloads()) {
        if (workload == s.name)
            spec = &s;
    }
    if (!spec || seconds < 0 || (trace != 0 && trace != 1) ||
        out_dir.empty() || argc % 2 == 0) {
        usage();
        return 2;
    }
    const bool traced = trace == 1;

    // Repeat until the time budget is spent, at least twice. Traced
    // runs alternate traced and untraced repetitions so the tracing
    // overhead is measured inside one process.
    std::vector<RepResult> reps;
    const HostClock::time_point begin = HostClock::now();
    while (reps.size() < 2 || hostSecondsSince(begin) < seconds) {
        const bool keep_spans = traced && reps.size() % 2 == 0;
        reps.push_back(spec->run(seed, keep_spans, false));
        std::printf("rep %zu: setup %.4f s, run %.4f s%s\n",
                    reps.size(),
                    reps.back().phases.total({"build", "connect", "warm"}),
                    reps.back().phases.total(
                        {"warmup", "window", "drain"}),
                    keep_spans ? " (traced)" : "");
        std::fflush(stdout);
    }

    // Set-up is short next to a repetition; time more set-ups alone
    // until the median rests on enough samples and enough host time.
    constexpr size_t kMinSetups = 5;
    constexpr size_t kMaxSetups = 200;
    constexpr double kMinSetupSeconds = 2.0;
    std::vector<PhaseClock> setups;
    double setup_seconds = 0;
    for (const RepResult &rep : reps) {
        setups.push_back(rep.phases);
        setup_seconds += rep.phases.total({"build", "connect", "warm"});
    }
    while (setups.size() < kMinSetups ||
           (setup_seconds < kMinSetupSeconds &&
            setups.size() < kMaxSetups)) {
        setups.push_back(spec->run(seed, false, true).phases);
        setup_seconds += setups.back().total({"build", "connect", "warm"});
    }

    std::vector<Check> checks = reps.front().checks;
    const std::string reference = canonical(reps.front());
    const uint32_t fingerprint =
        util::crc32c(reference.data(), reference.size());
    bool identical = true;
    for (size_t i = 1; i < reps.size(); ++i) {
        identical = identical && canonical(reps[i]) == reference;
        for (const Check &c : reps[i].checks) {
            if (!c.ok)
                checks.push_back(c);
        }
    }
    checks.push_back({"repetitions_identical", identical,
                      std::to_string(reps.size()) + " repetitions"});
    if (traced && spec->verify)
        checks.push_back(spec->verify(seed, reps.front()));

    // Host metrics come from untraced repetitions only (the odd ones
    // in a traced run).
    auto median_run = [&reps](int parity) {
        std::vector<double> values;
        for (size_t i = 0; i < reps.size(); ++i) {
            if (parity < 0 || static_cast<int>(i % 2) == parity)
                values.push_back(
                    reps[i].phases.total({"warmup", "window", "drain"}));
        }
        return median(values);
    };
    auto median_setup = [&setups](std::initializer_list<const char *> names) {
        std::vector<double> values;
        for (const PhaseClock &clock : setups)
            values.push_back(clock.total(names));
        return median(values);
    };
    const double setup_s = median_setup({"build", "connect", "warm"});
    const double run_s = median_run(traced ? 1 : -1);

    std::vector<Metric> metrics;
    metrics.push_back({"setup_s", "s", "host", setup_s});
    metrics.push_back({"run_s", "s", "host", run_s});
    metrics.push_back({"peak_rss_mib", "MiB", "host", peakRssMib()});
    for (const Metric &m : reps.front().sim)
        metrics.push_back(m);
    // Defined on some workloads only; the others report 0.
    for (const auto &[name, unit] :
         {std::pair{"tpmc", "1/min"}, std::pair{"goodput_iops", "1/s"},
          std::pair{"slo_iops", "1/s"},
          std::pair{"failed_frac", "fraction"}}) {
        const bool present = std::any_of(
            metrics.begin(), metrics.end(),
            [name = name](const Metric &m) { return m.name == name; });
        if (!present)
            metrics.push_back({name, unit, "sim", 0});
    }
    const RepResult &first = reps.front();
    metrics.push_back({"sim.events", "count", "sim",
                       static_cast<double>(first.events)});
    metrics.push_back({"sim.events_per_io", "count", "sim",
                       ratio(static_cast<double>(first.window_events),
                             static_cast<double>(first.ios))});
    metrics.push_back({"sim.host_ns_per_event", "ns", "host",
                       ratio(run_s * 1e9,
                             static_cast<double>(first.run_events))});
    for (const char *phase : {"build", "connect", "warm"})
        metrics.push_back({std::string("setup.") + phase + "_s", "s",
                           "host", median_setup({phase})});
    if (traced) {
        const double traced_run = median_run(0);
        metrics.push_back({"trace.run_s", "s", "host", traced_run});
        metrics.push_back({"trace.overhead_s", "s", "host",
                           traced_run - run_s});
    }
    for (const Metric &m : first.layer)
        metrics.push_back(m);

    bool correct = true;
    for (const Check &c : checks)
        correct = correct && c.ok;
    uint64_t attempted = 0, failed = 0;
    for (const RepResult &rep : reps) {
        attempted += rep.ios;
        failed += rep.failed;
    }

    std::printf("workload %s, seed %llu, %zu repetitions, trace %d\n",
                spec->name, static_cast<unsigned long long>(seed),
                reps.size(), trace);
    for (const Metric &m : metrics)
        std::printf("metric %-34s %16.6f %-8s [%s]%s%s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.clock.c_str(),
                    m.paper.empty() ? "" : " paper: ", m.paper.c_str());
    for (const Check &c : checks)
        std::printf("check %-34s %s%s%s\n", c.name.c_str(),
                    c.ok ? "ok" : "FAILED", c.detail.empty() ? "" : ": ",
                    c.detail.c_str());
    std::printf("fingerprint crc32c 0x%08x\n", fingerprint);

    const std::string stem = out_dir + "/" + spec->name + "-seed" +
                             std::to_string(seed) + "-trace" +
                             std::to_string(trace);
    if (traced) {
        const std::string path = stem + ".trace.json";
        if (!writeTrace(path, reps.front(), spec->name)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("trace %s (%zu I/O spans)\n", path.c_str(),
                    reps.front().spans.size());
    }

    util::JsonWriter w;
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("workload").value(spec->name);
    w.key("seed").value(seed);
    w.key("repetitions").value(static_cast<uint64_t>(reps.size()));
    w.key("fingerprint").value(static_cast<uint64_t>(fingerprint));
    w.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.key("clock").value(m.clock);
        if (!m.paper.empty())
            w.key("paper").value(m.paper);
        w.endObject();
    }
    w.endObject();
    w.key("checks").beginObject();
    for (const Check &c : checks)
        w.key(c.name).value(c.ok);
    w.endObject();
    w.endObject();
    {
        std::ofstream out(stem + ".json", std::ios::trunc);
        out << w.str() << '\n' << reference << '\n';
    }
    std::printf("%s\n", w.str().c_str());
    return correct ? 0 : 1;
}
