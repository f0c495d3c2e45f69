/**
 * @file
 * Statistics dump: run one (benchmark, preset) pair and print every
 * registered statistic - per-core TLB/PTW/L1 counters, walk latency
 * histograms, scheduler throttle counters, memory-partition traffic.
 * The grep-friendly format is the debugging entry point for new
 * design points.
 *
 * Usage: stats_dump [benchmark] [preset] [scale]
 *   preset: no-tlb | naive | augmented | ideal | iommu | ccws | tbc
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "core/shared_translation.hh"
#include "sim/parse_util.hh"

using namespace gpummu;

namespace {

SystemConfig
presetByName(const std::string &name)
{
    if (name == "no-tlb")
        return presets::noTlb();
    if (name == "naive")
        return presets::naiveTlb(4);
    if (name == "augmented")
        return presets::augmentedTlb();
    if (name == "ideal")
        return presets::idealTlb();
    if (name == "iommu")
        return presets::iommu();
    if (name == "ccws")
        return presets::ccws(presets::augmentedTlb());
    if (name == "tbc")
        return presets::tbc(presets::augmentedTlb());
    std::cerr << "unknown preset '" << name << "'; one of: no-tlb naive "
                 "augmented ideal iommu ccws tbc\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 4) {
        std::cerr << "unexpected argument: " << argv[4]
                  << "\nusage: stats_dump [benchmark] [preset] [scale]\n";
        return 1;
    }
    const char *bench_name = argc > 1 ? argv[1] : "bfs";
    const auto bench = benchmarkByName(bench_name);
    if (!bench) {
        std::cerr << "unknown benchmark '" << bench_name
                  << "'; one of: " << benchmarkNames() << "\n";
        return 1;
    }
    const SystemConfig cfg =
        presetByName(argc > 2 ? argv[2] : "augmented");
    WorkloadParams params;
    params.scale = 0.1;
    params.seed = 42;
    if (argc > 3 && !parseScale(argv[3], params.scale)) {
        std::cerr << "bad scale '" << argv[3]
                  << "': wants a positive number\n";
        return 1;
    }

    auto workload = makeWorkload(*bench, params);
    SharedTranslation unit(cfg);
    GpuTop gpu(cfg.numCores, cfg.mem, *workload, unit.coreFactory(),
               cfg.largePages, cfg.physFrames);
    unit.regStats(gpu.stats());

    const RunStats stats = gpu.run(cfg.maxCycles);
    std::cout << "# " << benchmarkName(*bench) << " / " << cfg.name
              << " scale=" << params.scale << "\n";
    std::cout << "run.cycles " << stats.cycles << "\n";
    std::cout << "run.ipc " << stats.ipc() << "\n";
    std::cout << "run.tlb_miss_rate " << stats.tlbMissRate() << "\n";
    std::cout << "run.l1_miss_rate " << stats.l1MissRate() << "\n";
    gpu.stats().dump(std::cout);
    return 0;
}
