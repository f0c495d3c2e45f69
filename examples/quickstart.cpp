/**
 * @file
 * Quickstart: simulate one benchmark on three MMU design points and
 * print the headline numbers. This is the 30-second tour of the
 * library; see the bench/ binaries for full paper reproductions.
 *
 * Usage: quickstart [benchmark] [scale]
 *   benchmark: bfs | kmeans | streamcluster | mummergpu |
 *              pathfinder | memcached   (default bfs)
 *   scale:     workload scale factor     (default 0.25)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "sim/parse_util.hh"

using namespace gpummu;

namespace {

BenchmarkId
parseBenchmark(const std::string &name)
{
    if (const auto id = benchmarkByName(name))
        return *id;
    std::cerr << "unknown benchmark '" << name
              << "'; one of: " << benchmarkNames() << "\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 3) {
        std::cerr << "unexpected argument: " << argv[3]
                  << "\nusage: quickstart [benchmark] [scale]\n";
        return 1;
    }
    const BenchmarkId bench =
        argc > 1 ? parseBenchmark(argv[1]) : BenchmarkId::Bfs;
    WorkloadParams params;
    params.scale = 0.25;
    params.seed = 42;
    if (argc > 2 && !parseScale(argv[2], params.scale)) {
        std::cerr << "bad scale '" << argv[2]
                  << "': wants a positive number\n";
        return 1;
    }

    Experiment exp(params);
    const SystemConfig base = presets::noTlb();
    const SystemConfig naive = presets::naiveTlb(3);
    const SystemConfig augmented = presets::augmentedTlb();

    std::cout << "benchmark: " << benchmarkName(bench)
              << "  scale: " << params.scale << "\n\n";

    ReportTable table({"config", "cycles", "IPC", "tlb-miss%",
                       "l1-miss%", "pagediv", "speedup-vs-no-tlb"});
    for (const SystemConfig *cfg : {&base, &naive, &augmented}) {
        const RunStats s = exp.run(bench, *cfg);
        table.addRow({cfg->name, std::to_string(s.cycles),
                      ReportTable::num(s.ipc(), 2),
                      ReportTable::pct(s.tlbMissRate()),
                      ReportTable::pct(s.l1MissRate()),
                      ReportTable::num(s.avgPageDivergence, 2),
                      ReportTable::num(exp.speedup(bench, *cfg, base),
                                       3)});
    }
    table.print(std::cout);

    const RunStats naive_stats = exp.run(bench, naive);
    std::cout << "\navg TLB miss latency: "
              << ReportTable::num(naive_stats.avgTlbMissLatency, 1)
              << " cycles, avg L1 miss latency: "
              << ReportTable::num(naive_stats.avgL1MissLatency, 1)
              << " cycles\n";
    return 0;
}
