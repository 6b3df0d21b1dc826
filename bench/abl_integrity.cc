/**
 * @file
 * Ablation A8: end-to-end data integrity under injected corruption.
 *
 * The paper's reliability argument (section 2.2) is that DSA supplies
 * the guarantees VI lacks; this bench extends that argument from
 * *loss* to *corruption*. A 2-node mirrored cDSA testbed runs a
 * closed-loop 8K read/write mix whose every block carries an
 * offset-derived stamp, while the fault injector damages the system
 * three ways at once:
 *
 *  - wire corruption: each delivered packet is damaged with
 *    probability p (the sweep variable) — request messages arrive
 *    broken (dropped by the server's receive check), write payloads
 *    arrive broken in staging (rejected by the staging digest),
 *    read payloads arrive broken in the client buffer (rejected by
 *    the response digest) — all recovered by retransmission;
 *  - latent sector errors: blocks rot silently on one replica's
 *    disks, detected only by the server's verify-on-read and
 *    repaired by the mirror from the healthy peer;
 *  - a background scrubber walks both replicas so cold rot is found
 *    without waiting for an application read.
 *
 * The application-level oracle is the stamp: a read that completes
 * "ok" with wrong bytes is an *undetected* corruption, and the bench
 * fails if it ever sees one. The artifact records injected vs
 * detected vs repaired counts plus the goodput/latency cost of the
 * digest machinery (the rate-0 row is the in-artifact baseline).
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "disk/stripe_layout.hh"
#include "scenarios/testbed.hh"
#include "util/bench_reporter.hh"
#include "util/table.hh"
#include "util/units.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

struct RunTimes
{
    sim::Tick fill_cap; ///< budget for the pre-stamp phase
    sim::Tick run;      ///< measured window under injection
    sim::Tick drain;    ///< post-window settle (retransmits, repairs)
};

/** One sweep point's outcome. */
struct Point
{
    double rate = 0.0;
    bool filled = false;
    uint64_t completions = 0;
    uint64_t failures = 0;
    uint64_t undetected = 0;
    double read_us = 0.0;
    double write_us = 0.0;
    uint64_t injected_wire = 0;
    uint64_t injected_latent = 0;
    uint64_t client_digest_mismatches = 0;
    uint64_t server_digest_mismatches = 0;
    uint64_t server_bad_requests = 0;
    uint64_t verify_failures = 0;
    uint64_t repairs = 0;
    uint64_t unrecoverable = 0;
    uint64_t scrubbed_bytes = 0;
    bool latent_clean = false;
    std::string metrics_json;
};

constexpr uint64_t kIoBytes = 8192;
constexpr uint64_t kSpanBase = 1 * util::kMiB;
constexpr int kWorkers = 8;

/** Offset-derived block stamp: every 8-byte word is a mix of its own
 *  address, so any displaced/damaged byte is detectable. */
void
stampBlock(std::vector<uint64_t> &words, uint64_t offset)
{
    for (size_t i = 0; i < words.size(); ++i) {
        words[i] = (offset + i * 8) * 0x9E3779B97F4A7C15ull +
                   0x2545F4914F6CDD1Dull;
    }
}

bool
verifyBlock(const sim::MemorySpace &mem, sim::Addr addr,
            uint64_t offset, uint64_t len)
{
    std::vector<uint64_t> got(len / 8);
    mem.read(addr, got.data(), len);
    std::vector<uint64_t> want(len / 8);
    stampBlock(want, offset);
    return got == want;
}

bool
runPoint(double rate, const RunTimes &times, uint64_t span,
         bool attach_metrics, Point &out)
{
    out.rate = rate;

    // The retransmit timer must sit above the true service-time tail
    // (disk-bound writes on this small testbed run ~15 ms): a timer
    // below it fires spurious retransmits whose duplicate read
    // deliveries trample reused buffers. 100 ms keeps recovery from a
    // corrupted (dropped) request reasonably quick while the digest
    // paths handle damaged payloads at wire speed; a generous retry
    // budget keeps p=1e-2 from ever escalating to node death.
    dsa::DsaConfig dsa_config;
    dsa_config.retransmit_timeout = sim::msecs(100);
    dsa_config.max_retransmits = 8;
    dsa_config.reconnect_delay = sim::msecs(2);
    dsa_config.max_reconnect_attempts = 3;
    dsa_config.connect_timeout = sim::msecs(8);

    HostParams host_params = HostParams::midSize();
    StorageParams storage_params;
    storage_params.v3_nodes = 2;
    storage_params.disks_per_node = 4;
    storage_params.disk_spec = disk::DiskSpec::scsi10k();
    // Shrink the media so a scrub pass is feasible inside the run.
    storage_params.disk_spec.capacity_bytes = 4 * util::kMiB;
    storage_params.cache_bytes_per_node = 4 * util::kMiB;
    storage_params.mirrored = true;
    storage_params.mirror.probe_interval = sim::msecs(5);
    storage_params.mirror.scrub_rate_bytes_per_sec =
        32 * util::kMiB;
    storage_params.mirror.scrub_chunk = 64 * util::kKiB;

    Testbed bed(Backend::Cdsa, host_params, storage_params,
                dsa_config, /*seed=*/11);
    if (!bed.connectAll()) {
        std::fprintf(stderr, "abl_integrity: connect failed\n");
        return false;
    }

    sim::Simulation &sim = bed.sim();
    sim::MemorySpace &mem = bed.host().memory();
    dsa::MirroredDevice &mirror = *bed.mirrors().front();
    const uint64_t stripe_unit = storage_params.stripe_unit;
    const uint64_t blocks = span / kIoBytes;

    std::vector<sim::Addr> bufs;
    for (int w = 0; w < kWorkers; ++w)
        bufs.push_back(mem.allocate(kIoBytes));

    // --- Fill phase: stamp every block in the span (clean wire). ---
    uint64_t filled = 0;
    for (int w = 0; w < kWorkers; ++w) {
        sim::spawn([](dsa::MirroredDevice &device,
                      sim::MemorySpace &space, sim::Addr buffer,
                      uint64_t first, uint64_t stride,
                      uint64_t nblocks,
                      uint64_t &done) -> sim::Task<> {
            std::vector<uint64_t> words(kIoBytes / 8);
            for (uint64_t b = first; b < nblocks; b += stride) {
                const uint64_t offset = kSpanBase + b * kIoBytes;
                stampBlock(words, offset);
                space.write(buffer, words.data(), kIoBytes);
                co_await device.write(offset, kIoBytes, buffer);
                ++done;
            }
        }(mirror, mem, bufs[w], static_cast<uint64_t>(w), kWorkers,
          blocks, filled));
    }
    while (filled < blocks && sim.now() < times.fill_cap)
        sim.runUntil(sim.now() + sim::msecs(20));
    out.filled = filled == blocks;
    if (!out.filled) {
        std::fprintf(stderr, "abl_integrity: fill incomplete "
                             "(%llu/%llu blocks)\n",
                     static_cast<unsigned long long>(filled),
                     static_cast<unsigned long long>(blocks));
        return false;
    }

    // Fresh measurement epoch, then arm the faults: wire corruption
    // at the sweep rate plus six 8K latent sector errors on node 0,
    // all inside the first stripe row ([0, 4*64K), below kSpanBase)
    // so the application load never overwrites them — only
    // verify-on-read and the scrubber can find them.
    bed.resetStats();
    if (rate > 0.0)
        bed.faults().setCorruptRate(rate);
    const std::vector<uint64_t> latent_offsets = {
        0,
        8 * util::kKiB,
        stripe_unit,
        stripe_unit + 8 * util::kKiB,
        2 * stripe_unit,
        3 * stripe_unit,
    };
    storage::V3Server &rotten = *bed.servers().front();
    const disk::StripeLayout layout{stripe_unit,
                                    rotten.diskManager().diskCount()};
    for (uint64_t off : latent_offsets) {
        const disk::StripeChunk chunk = layout.chunkAt(off, kIoBytes);
        bed.faults().injectLatentError(
            rotten.diskManager().disk(chunk.child), chunk.child_offset,
            kIoBytes);
    }
    const disk::Volume *vol0 = rotten.volumeManager().volume(0);
    const disk::Volume *vol1 =
        bed.servers()[1]->volumeManager().volume(0);

    const sim::Tick t_end = sim.now() + times.run;
    const double run_s = static_cast<double>(times.run) / 1e9;

    // --- Timed phase: stamped 8K mix, 75 % reads, verify on read. ---
    sim::Sampler read_lat, write_lat;
    for (int w = 0; w < kWorkers; ++w) {
        sim::spawn([](sim::Simulation &s, dsa::MirroredDevice &device,
                      sim::MemorySpace &space, sim::Rng rng,
                      sim::Addr buffer, uint64_t nblocks,
                      sim::Tick end, Point &point,
                      sim::Sampler &rd,
                      sim::Sampler &wr) -> sim::Task<> {
            std::vector<uint64_t> words(kIoBytes / 8);
            while (s.now() < end) {
                const uint64_t offset =
                    kSpanBase +
                    rng.uniformInt(0, nblocks - 1) * kIoBytes;
                const bool is_read = rng.bernoulli(0.75);
                const sim::Tick started = s.now();
                bool ok;
                if (is_read) {
                    ok = co_await device.read(offset, kIoBytes,
                                              buffer);
                    rd.add(static_cast<double>(s.now() - started));
                    if (ok && !verifyBlock(space, buffer, offset,
                                           kIoBytes)) {
                        ++point.undetected;
                    }
                } else {
                    stampBlock(words, offset);
                    space.write(buffer, words.data(), kIoBytes);
                    ok = co_await device.write(offset, kIoBytes,
                                               buffer);
                    wr.add(static_cast<double>(s.now() - started));
                }
                (ok ? point.completions : point.failures)++;
            }
        }(sim, mirror, mem, sim.forkRng(), bufs[w], blocks, t_end,
          out, read_lat, write_lat));
    }

    // Foreground reader over the rotten region: retries each damaged
    // block until the mirror's read path has repaired it (round-robin
    // legs mean a retry soon lands on the damaged replica). Races
    // benignly with the scrubber — whoever reads the rotten leg
    // first triggers the repair.
    const sim::Addr probe_buf = mem.allocate(kIoBytes);
    sim::spawn([](sim::Simulation &s, dsa::MirroredDevice &device,
                  const disk::Volume *oracle,
                  std::vector<uint64_t> offsets, sim::Addr buffer,
                  sim::Tick deadline) -> sim::Task<> {
        for (uint64_t off : offsets) {
            int attempts = 0;
            while (oracle->corrupt(off, kIoBytes) &&
                   s.now() < deadline) {
                co_await device.read(off, kIoBytes, buffer);
                if (++attempts % 4 == 0)
                    co_await s.sleep(sim::msecs(5));
            }
        }
    }(sim, mirror, vol0, latent_offsets, probe_buf,
      t_end + times.drain / 2));

    sim.runUntil(t_end);
    bed.faults().setCorruptRate(0.0);
    sim.runUntil(t_end + times.drain);

    // --- Harvest. ---
    out.read_us = read_lat.mean() / 1e3;
    out.write_us = write_lat.mean() / 1e3;
    out.injected_wire = bed.faults().corruptedCount();
    out.injected_latent = bed.faults().latentErrorCount();
    for (auto &client : bed.clients()) {
        out.client_digest_mismatches += client->digestMismatchCount();
    }
    for (auto &server : bed.servers()) {
        out.server_digest_mismatches += server->digestMismatchCount();
        out.server_bad_requests += server->badRequestCount();
        out.verify_failures += server->integrityErrorCount();
    }
    out.repairs = mirror.integrityRepairCount();
    out.unrecoverable = mirror.unrecoverableCount();
    out.scrubbed_bytes = mirror.scrubbedBytes();
    const uint64_t rotten_span =
        latent_offsets.back() + kIoBytes;
    out.latent_clean = !vol0->corrupt(0, rotten_span) &&
                       !vol1->corrupt(0, rotten_span);
    if (attach_metrics)
        out.metrics_json = sim.metrics().toJson();

    std::printf("rate %.0e: %.0f io/s, %llu undetected, "
                "%llu wire injected, %llu+%llu+%llu detected, "
                "%llu latent -> %llu repairs, clean=%s\n",
                rate, static_cast<double>(out.completions) / run_s,
                static_cast<unsigned long long>(out.undetected),
                static_cast<unsigned long long>(out.injected_wire),
                static_cast<unsigned long long>(
                    out.client_digest_mismatches),
                static_cast<unsigned long long>(
                    out.server_digest_mismatches),
                static_cast<unsigned long long>(
                    out.server_bad_requests),
                static_cast<unsigned long long>(out.injected_latent),
                static_cast<unsigned long long>(out.repairs),
                out.latent_clean ? "yes" : "NO");

    mem.free(probe_buf);
    for (sim::Addr buf : bufs)
        mem.free(buf);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    util::BenchReporter reporter("abl_integrity", argc, argv);

    const RunTimes times =
        reporter.quick()
            ? RunTimes{sim::msecs(2000), sim::msecs(800),
                       sim::msecs(400)}
            : RunTimes{sim::msecs(4000), sim::msecs(1500),
                       sim::msecs(500)};
    const uint64_t span =
        reporter.quick() ? 4 * util::kMiB : 8 * util::kMiB;
    const std::vector<double> rates =
        reporter.quick() ? std::vector<double>{0.0, 1e-3}
                         : std::vector<double>{0.0, 1e-4, 1e-3, 1e-2};

    std::printf("Ablation A8: integrity under corruption injection "
                "(2-node mirror, cDSA, %d workers, 8K stamped mix)\n",
                kWorkers);

    std::vector<Point> points;
    for (size_t i = 0; i < rates.size(); ++i) {
        Point point;
        if (!runPoint(rates[i], times, span,
                      /*attach_metrics=*/i + 1 == rates.size(),
                      point)) {
            return 1;
        }
        points.push_back(std::move(point));
    }

    const double run_s = static_cast<double>(times.run) / 1e9;
    util::TextTable table({"rate", "iops", "failed", "undetected",
                           "read(us)", "write(us)", "wire_inj",
                           "detected", "latent", "repairs",
                           "clean"});
    bool accept = true;
    for (const Point &p : points) {
        const uint64_t detected = p.client_digest_mismatches +
                                  p.server_digest_mismatches +
                                  p.server_bad_requests;
        const double iops =
            static_cast<double>(p.completions) / run_s;
        table.addRow(
            {util::TextTable::num(p.rate, 4),
             util::TextTable::num(iops, 0),
             util::TextTable::num(static_cast<int64_t>(p.failures)),
             util::TextTable::num(
                 static_cast<int64_t>(p.undetected)),
             util::TextTable::num(p.read_us, 1),
             util::TextTable::num(p.write_us, 1),
             util::TextTable::num(
                 static_cast<int64_t>(p.injected_wire)),
             util::TextTable::num(static_cast<int64_t>(detected)),
             util::TextTable::num(
                 static_cast<int64_t>(p.injected_latent)),
             util::TextTable::num(static_cast<int64_t>(p.repairs)),
             p.latent_clean ? "yes" : "NO"});
        reporter.beginRow();
        reporter.col("corrupt_rate", p.rate);
        reporter.col("iops", iops);
        reporter.col("failed_ios", static_cast<int64_t>(p.failures));
        reporter.col("undetected_corruptions",
                     static_cast<int64_t>(p.undetected));
        reporter.col("read_us", p.read_us);
        reporter.col("write_us", p.write_us);
        reporter.col("injected_wire",
                     static_cast<int64_t>(p.injected_wire));
        reporter.col("injected_latent",
                     static_cast<int64_t>(p.injected_latent));
        reporter.col("client_digest_mismatches",
                     static_cast<int64_t>(
                         p.client_digest_mismatches));
        reporter.col("server_digest_mismatches",
                     static_cast<int64_t>(
                         p.server_digest_mismatches));
        reporter.col("server_bad_requests",
                     static_cast<int64_t>(p.server_bad_requests));
        reporter.col("verify_on_read_hits",
                     static_cast<int64_t>(p.verify_failures));
        reporter.col("mirror_repairs",
                     static_cast<int64_t>(p.repairs));
        reporter.col("unrecoverable",
                     static_cast<int64_t>(p.unrecoverable));
        reporter.col("scrubbed_bytes",
                     static_cast<int64_t>(p.scrubbed_bytes));
        reporter.col("latent_clean",
                     static_cast<int64_t>(p.latent_clean ? 1 : 0));

        // Acceptance: never an undetected corrupt block or data
        // loss; every latent error repaired; and at injection rates
        // of 1e-3+ the detection machinery visibly fired.
        accept = accept && p.undetected == 0 && p.unrecoverable == 0;
        accept = accept && p.latent_clean && p.repairs >= 1;
        if (p.rate >= 1e-3)
            accept = accept && p.injected_wire > 0 && detected > 0;
    }
    table.print();

    const Point &base = points.front();
    const Point &worst = points.back();
    std::printf("\ncheck: zero undetected corruptions, all latent "
                "errors repaired, detection fired at 1e-3+: %s\n",
                accept ? "yes" : "NO");
    std::printf("digest overhead at rate 0: read %.1f us, write "
                "%.1f us; at worst rate: read %.1f us, write %.1f "
                "us\n",
                base.read_us, base.write_us, worst.read_us,
                worst.write_us);

    reporter.note("shape",
                  "goodput degrades gracefully with corruption rate; "
                  "every injected fault is detected (digest or "
                  "verify-on-read) and repaired (retransmit or "
                  "mirror rewrite); undetected corruptions are "
                  "always zero");
    reporter.note("latent_injected_per_point",
                  std::to_string(points.front().injected_latent));
    reporter.note("baseline_read_us",
                  std::to_string(base.read_us));
    reporter.note("baseline_write_us",
                  std::to_string(base.write_us));
    if (!points.back().metrics_json.empty())
        reporter.attachMetricsJson(points.back().metrics_json);

    const bool wrote = reporter.write();
    return (wrote && accept) ? 0 : 1;
}
