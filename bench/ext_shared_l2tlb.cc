/**
 * @file
 * Extension experiment: a shared second-level TLB between the
 * per-core MMUs and their page walkers.
 *
 * The paper's augmented MMU backs each core's 128-entry TLB directly
 * with the walker pool; the heterogeneous-MMU design-space studies in
 * the related work (Kim et al., Mosaic) interpose a large shared L2
 * translation structure instead. This bench sweeps that design point
 * over L2 capacity x lookup ports on top of the paper's augmented
 * per-core MMU, reporting speedup over the augmented baseline and the
 * page-walk references the walkers still issue.
 *
 * Expected shape: walker refs_issued falls monotonically as the L2
 * grows (every L2 hit or MSHR merge is a walk that never happens) -
 * the binary checks that invariant and fails loudly if a sweep
 * violates it. Port count matters only when cores collide on the
 * shared structure, so its effect shows on the walk-heavy,
 * high-divergence workloads first.
 */

#include <cstdint>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"

using namespace gpummu;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, /*default_scale=*/0.10);
    Experiment exp(opt.params);

    const std::vector<std::size_t> kEntries = {512, 2048, 8192};
    const std::vector<unsigned> kPorts = {1, 4};

    const SystemConfig base = presets::noTlb();
    const SystemConfig aug = presets::augmentedTlb();
    std::vector<SystemConfig> l2cfgs;
    for (unsigned ports : kPorts) {
        for (std::size_t entries : kEntries)
            l2cfgs.push_back(
                presets::withSharedL2Tlb(aug, entries, ports));
    }

    std::cout << "=== Extension: shared L2 TLB size x ports sweep "
                 "===\nscale=" << opt.params.scale << "\n\n";

    std::vector<SystemConfig> all = {base, aug};
    all.insert(all.end(), l2cfgs.begin(), l2cfgs.end());
    benchutil::prewarm(exp, opt.benchmarks, all, opt.jobs);

    bool monotonic = true;
    for (unsigned ports : kPorts) {
        ReportTable table({"benchmark", "augmented", "l2-512e",
                           "l2-2048e", "l2-8192e", "walk-refs "
                           "aug/512/2048/8192"});
        std::cout << "--- " << ports << " L2 lookup port"
                  << (ports > 1 ? "s" : "") << " ---\n";
        for (BenchmarkId id : opt.benchmarks) {
            const double s_aug = exp.speedup(id, aug, base);
            std::vector<std::string> row = {benchmarkName(id),
                                            ReportTable::num(s_aug)};
            std::string refs = std::to_string(
                exp.run(id, aug).walkRefsIssued);
            std::uint64_t prev_refs =
                exp.run(id, aug).walkRefsIssued;
            for (std::size_t entries : kEntries) {
                const SystemConfig cfg =
                    presets::withSharedL2Tlb(aug, entries, ports);
                row.push_back(ReportTable::num(
                    exp.speedup(id, cfg, base)));
                const std::uint64_t r =
                    exp.run(id, cfg).walkRefsIssued;
                refs += '/';
                refs += std::to_string(r);
                // Each L2 hit or merge is a walk that never reaches
                // the walkers, so refs must not grow with capacity.
                if (r > prev_refs) {
                    monotonic = false;
                    std::cerr << "MONOTONICITY VIOLATION: "
                              << benchmarkName(id) << " @" << ports
                              << "p, " << entries << " entries: "
                              << r << " walk refs > " << prev_refs
                              << " at the previous size\n";
                }
                prev_refs = r;
            }
            row.push_back(refs);
            table.addRow(row);
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << (monotonic
                      ? "walker refs_issued monotonically "
                        "non-increasing with L2 capacity: OK\n"
                      : "walker refs_issued NOT monotonic - see "
                        "violations above\n");
    benchutil::maybeObserveRun(
        opt, presets::withSharedL2Tlb(aug, kEntries.back(),
                                      kPorts.back()));
    return monotonic ? 0 : 1;
}
