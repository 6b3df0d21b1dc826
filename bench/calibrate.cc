/**
 * @file
 * Calibration harness (not a paper figure): prints the key
 * quantities every figure depends on so model constants can be tuned
 * against the paper's anchors. Safe to run any time; EXPERIMENTS.md
 * records the anchored values.
 */

#include <cstdio>

#include "scenarios/microbench.hh"
#include "scenarios/tpcc_run.hh"
#include "util/table.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

namespace
{

/** @return false if any configuration's node-to-node residual is
 *  negative (the Figure 4 breakdown does not add up). */
bool
microSection()
{
    bool residuals_ok = true;
    std::printf("== Raw VI latency (paper: 64B one-way ~7us; "
                "8K RTT ~0.09-0.13ms) ==\n");
    for (const uint64_t size : {512ull, 2048ull, 8192ull, 16384ull}) {
        std::printf("  VI %6llu B : %8.1f us\n",
                    static_cast<unsigned long long>(size),
                    rawViLatencyUs(size, 40));
    }

    std::printf("\n== DSA cached-read latency (Fig 3: ~0.1-0.25ms; "
                "cDSA < kDSA < wDSA; V3 adds 15-50us over VI) ==\n");
    for (const Backend backend :
         {Backend::Kdsa, Backend::Wdsa, Backend::Cdsa}) {
        MicroRig::Config config;
        config.backend = backend;
        MicroRig rig(config);
        for (const uint64_t size : {2048ull, 8192ull}) {
            const auto r = rig.measureLatency(size, true, 60, true);
            std::printf(
                "  %-5s %6llu B : total %7.1f us  cpu %6.1f  "
                "server %6.1f  wire %6.1f\n",
                backendName(backend),
                static_cast<unsigned long long>(size), r.mean_us,
                r.cpu_overhead_us, r.server_us, r.wireUs());
            if (r.wireUs() < 0) {
                std::fprintf(stderr,
                             "calibrate: %s %llu B: negative "
                             "node-to-node residual\n",
                             backendName(backend),
                             static_cast<unsigned long long>(size));
                residuals_ok = false;
            }
        }
    }

    std::printf("\n== Cached throughput, 8K (Fig 6: saturates "
                "~110MB/s at >=4 outstanding) ==\n");
    {
        MicroRig::Config config;
        config.backend = Backend::Kdsa;
        MicroRig rig(config);
        for (const int outstanding : {1, 2, 4, 8}) {
            const auto r = rig.measureThroughput(
                8192, true, outstanding, sim::msecs(200), true);
            std::printf("  outstanding %2d : %7.1f MB/s  resp %7.1f us\n",
                        outstanding, r.mbps, r.mean_response_us);
        }
    }

    std::printf("\n== Uncached random 8K read (Fig 7: V3 within ~3%% "
                "of local) ==\n");
    {
        MicroRig::Config v3c;
        v3c.backend = Backend::Kdsa;
        v3c.cache_bytes = 0;
        MicroRig v3(v3c);
        const auto rv = v3.measureLatency(8192, true, 100, false);
        MicroRig::Config lc;
        lc.backend = Backend::Local;
        MicroRig local(lc);
        const auto rl = local.measureLatency(8192, true, 100, false);
        std::printf("  V3 %0.2f ms   local %0.2f ms   (+%0.1f%%)\n",
                    rv.mean_us / 1e3, rl.mean_us / 1e3,
                    (rv.mean_us / rl.mean_us - 1) * 100);
    }
    return residuals_ok;
}

void
tpccSection(Platform platform, const char *label)
{
    std::printf("\n== TPC-C %s (Fig 10/13: local=100; kDSA ~98-100, "
                "wDSA ~78-90, cDSA ~103-118) ==\n",
                label);
    double local_tpmc = 0;
    for (const Backend backend : {Backend::Local, Backend::Kdsa,
                                  Backend::Wdsa, Backend::Cdsa}) {
        TpccRunConfig config;
        config.backend = backend;
        config.platform = platform;
        const TpccRunResult result = runTpcc(config);
        if (backend == Backend::Local)
            local_tpmc = result.oltp.tpmc;
        std::printf(
            "  %-5s tpmC %8.0f (%5.1f%%)  cpu %4.1f%%  hit %4.1f%%  "
            "disk %4.1f%%  intr/s %8.0f  iops %8.0f\n",
            backendName(backend), result.oltp.tpmc,
            local_tpmc > 0 ? result.oltp.tpmc / local_tpmc * 100 : 0.0,
            result.oltp.cpu_utilization * 100,
            result.server_cache_hit * 100,
            result.disk_utilization * 100,
            static_cast<double>(result.host_interrupts) /
                sim::toSecs(sim::msecs(1500)),
            result.oltp.io_per_second);
        std::printf("        breakdown:");
        for (size_t c = 0; c < osmodel::kCpuCatCount; ++c) {
            std::printf(" %s %4.1f%%",
                        osmodel::cpuCatName(
                            static_cast<osmodel::CpuCat>(c)),
                        result.oltp.cpu_breakdown[c] /
                            std::max(result.oltp.cpu_utilization,
                                     1e-9) *
                            100);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    const bool residuals_ok = microSection();
    tpccSection(Platform::MidSize, "mid-size (4 CPU)");
    if (!quick)
        tpccSection(Platform::Large, "large (32 CPU)");
    return residuals_ok ? 0 : 1;
}
