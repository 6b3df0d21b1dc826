/**
 * @file
 * Figure 4: "Response time breakdown for a read I/O request."
 *
 * Paper: single uncontended cached read at 2 KB and 8 KB, broken
 * into CPU overhead / node-to-node latency / V3 storage server time.
 * Expected shape: server ~20% of total at 2 KB, ~9% at 8 KB; cDSA
 * lowest CPU overhead, wDSA nearly 3x cDSA.
 */

#include <cstdio>

#include "scenarios/microbench.hh"
#include "util/bench_reporter.hh"
#include "util/table.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

int
main(int argc, char **argv)
{
    util::BenchReporter reporter("fig04", argc, argv);
    const int iters = reporter.quick() ? 12 : 80;

    std::printf("Figure 4: response-time breakdown for a read "
                "(milliseconds)\n\n");
    util::TextTable table({"config", "total", "cpu", "node-to-node",
                           "server", "server%"});

    bool residuals_ok = true;
    for (const uint64_t size : {2048ull, 8192ull}) {
        for (const Backend backend :
             {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa}) {
            MicroRig::Config config;
            config.backend = backend;
            MicroRig rig(config);
            const auto r = rig.measureLatency(size, true, iters, true);
            char label[64];
            std::snprintf(label, sizeof(label), "%s @ %s",
                          backendName(backend),
                          util::formatSize(size).c_str());
            if (r.wireUs() < 0) {
                std::fprintf(stderr,
                             "fig04: %s: negative node-to-node "
                             "residual %.3f us\n",
                             label, r.wireUs());
                residuals_ok = false;
            }
            table.addRow(
                {label, util::TextTable::num(r.mean_us / 1e3, 3),
                 util::TextTable::num(r.cpu_overhead_us / 1e3, 3),
                 util::TextTable::num(r.wireUs() / 1e3, 3),
                 util::TextTable::num(r.server_us / 1e3, 3),
                 util::TextTable::num(
                     r.server_us / r.mean_us * 100, 1)});
            reporter.beginRow();
            reporter.col("backend", std::string(backendName(backend)));
            reporter.col("size", static_cast<int64_t>(size));
            reporter.col("total_ms", r.mean_us / 1e3);
            reporter.col("cpu_ms", r.cpu_overhead_us / 1e3);
            reporter.col("node_to_node_ms", r.wireUs() / 1e3);
            reporter.col("server_ms", r.server_us / 1e3);
            reporter.col("server_pct", r.server_us / r.mean_us * 100);
            if (size == 8192 && backend == Backend::Cdsa) {
                reporter.attachMetricsJson(
                    rig.sim().metrics().toJson());
            }
        }
    }
    table.print();
    std::printf("\npaper anchors: server ~20%% of total at 2K, ~9%% "
                "at 8K; wDSA CPU ~3x cDSA; cDSA lowest CPU\n");
    reporter.note("anchors", "server ~20% of total at 2K, ~9% at 8K; "
                             "wDSA CPU ~3x cDSA; cDSA lowest CPU");
    return reporter.write() && residuals_ok ? 0 : 1;
}
