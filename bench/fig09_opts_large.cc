/**
 * @file
 * Figure 9: "Effect of optimizations on tpmC for the large
 * configuration" — kDSA and cDSA, optimizations stacked:
 * unoptimized, +batched deregistration, +interrupt batching,
 * +reduced lock synchronization. Normalized to the unoptimized case.
 *
 * Paper anchors: batched dereg +15% (kDSA) / +10% (cDSA); interrupt
 * batching +7% / +14%; lock-sync reduction +12% / +24% cumulative
 * steps.
 *
 * `--tie-seed N` (N > 0) runs every configuration under the event-tie
 * shuffle (DESIGN.md §8.3); ctest fig09_determinism_diff requires the
 * `--quick` artifact to be byte-identical across two tie seeds. Each
 * row also records the raw tpmC (`kdsa_tpmc`, `cdsa_tpmc`).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "scenarios/tpcc_run.hh"
#include "util/bench_reporter.hh"
#include "util/table.hh"

using namespace v3sim;
using namespace v3sim::scenarios;

int
main(int argc, char **argv)
{
    util::BenchReporter reporter("fig09", argc, argv);
    uint64_t tie_seed = 0;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--tie-seed") == 0)
            tie_seed = std::strtoull(argv[i + 1], nullptr, 0);
    }

    std::printf("Figure 9: optimization stack vs tpmC, large "
                "configuration (normalized to unoptimized)\n\n");

    struct Step
    {
        const char *label;
        dsa::DsaOptimizations opts;
    };
    const Step steps[] = {
        {"unoptimized", dsa::DsaOptimizations::none()},
        {"+dereg", {true, false, false}},
        {"+dereg+intrpt", {true, true, false}},
        {"+dereg+intrpt+sync", {true, true, true}},
    };

    util::TextTable table({"optimizations", "kDSA", "cDSA"});
    double base[2] = {0, 0};
    std::string last_metrics;
    for (const Step &step : steps) {
        std::vector<std::string> row = {step.label};
        reporter.beginRow();
        reporter.col("optimizations", std::string(step.label));
        int column = 0;
        for (const Backend backend :
             {Backend::Kdsa, Backend::Cdsa}) {
            TpccRunConfig config;
            config.platform = Platform::Large;
            config.backend = backend;
            config.opts = step.opts;
            config.tie_seed = tie_seed;
            if (reporter.quick()) {
                config.warmup = sim::msecs(60);
                config.window = sim::msecs(250);
            }
            const TpccRunResult result = runTpcc(config);
            if (base[column] == 0)
                base[column] = result.oltp.tpmc;
            row.push_back(util::TextTable::num(
                result.oltp.tpmc / base[column] * 100, 1));
            const char *key =
                backend == Backend::Kdsa ? "kdsa_norm" : "cdsa_norm";
            reporter.col(key,
                         result.oltp.tpmc / base[column] * 100);
            reporter.col(backend == Backend::Kdsa ? "kdsa_tpmc"
                                                  : "cdsa_tpmc",
                         result.oltp.tpmc);
            last_metrics = result.metrics_json;
            ++column;
        }
        table.addRow(row);
    }
    table.print();
    std::printf("\npaper anchors (cumulative): dereg +15/+10%%; "
                "intrpt +7/+14%%; sync +12/+24%%\n");
    reporter.note("anchors", "cumulative: dereg +15/+10%; intrpt "
                             "+7/+14%; sync +12/+24%");
    reporter.attachMetricsJson(std::move(last_metrics));
    return reporter.write() ? 0 : 1;
}
