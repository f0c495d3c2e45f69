/**
 * @file
 * Golden-stats regression: tolerance-0 comparison of full JSON stat
 * dumps against checked-in golden files at a fixed (scale, seed,
 * numCores) pin-point. Every workload runs under the baseline
 * augmented-MMU preset, plus one benchmark each through the CCWS and
 * TBC scheduler paths, the shared L2 TLB and the IOMMU so those
 * subsystems are pinned too.
 *
 * This pins simulated behaviour: a perf PR that only makes the
 * simulator faster leaves these dumps byte-identical, while any
 * change to simulated behaviour (timing, replacement, scheduling,
 * address streams) shows up as a diff that must be reviewed.
 *
 * To regenerate after an intentional behaviour change:
 *     ./build/tests/test_golden_stats --update-golden
 * then review the golden diff in the PR like any other code change.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/multi_tenant.hh"
#include "core/presets.hh"
#include "core/sweep.hh"

using namespace gpummu;

namespace {

bool update_golden = false;

/** Fixed pin-point: change it and you must regenerate the goldens. */
WorkloadParams
goldenParams()
{
    WorkloadParams p;
    p.scale = 0.03;
    p.seed = 42;
    return p;
}

SystemConfig
goldenConfig()
{
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 4;
    return cfg;
}

/** One pinned (config, benchmark) point; label names the golden. */
struct GoldenCase
{
    std::string label; ///< golden file stem, "<bench>[_<suffix>]"
    BenchmarkId bench;
    SystemConfig cfg;
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (BenchmarkId id : allBenchmarks())
        cases.push_back({benchmarkName(id), id, goldenConfig()});
    // Scheduler paths: one benchmark each keeps tier-1 wall-clock
    // flat while pinning the CCWS scoring and TBC compaction logic.
    cases.push_back({"bfs_ccws", BenchmarkId::Bfs,
                     presets::ccws(goldenConfig())});
    cases.push_back({"mummergpu_tbc", BenchmarkId::Mummergpu,
                     presets::tbc(goldenConfig())});
    // Shared L2 TLB path: two benchmarks pin the MSHR merge/bypass
    // protocol and the L2 port arbitration at a small capacity where
    // evictions actually happen.
    cases.push_back({"bfs_l2tlb", BenchmarkId::Bfs,
                     presets::withSharedL2Tlb(goldenConfig(), 512, 2)});
    cases.push_back({"pathfinder_l2tlb", BenchmarkId::Pathfinder,
                     presets::withSharedL2Tlb(goldenConfig(), 512, 2)});
    // Single-process IOMMU path: every core's L1 miss translates at
    // one shared controller, so walks queue and merge per VPN there.
    SystemConfig iommu = presets::iommu();
    iommu.numCores = 4;
    cases.push_back({"bfs_iommu", BenchmarkId::Bfs, iommu});
    return cases;
}

std::string
goldenPath(const GoldenCase &c)
{
    return std::string(GPUMMU_GOLDEN_DIR) + "/" + c.label + ".json";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(GoldenStats, DumpMatchesGoldenByteForByte)
{
    const GoldenCase &c = GetParam();
    const RunOutput out = runConfigFull(c.bench, c.cfg, goldenParams());
    const std::string current = out.statsJson + "\n";
    const std::string path = goldenPath(c);

    if (update_golden) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << current;
        SUCCEED() << "updated " << path;
        return;
    }

    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << path
        << "; run test_golden_stats --update-golden";
    EXPECT_EQ(golden, current)
        << "simulated behaviour changed for " << c.label
        << "; if intentional, regenerate with --update-golden and "
           "review the diff";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, GoldenStats, ::testing::ValuesIn(goldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return info.param.label;
    });

TEST(GoldenStatsMultiTenant, DumpMatchesGoldenByteForByte)
{
    // The multi-tenant runner at the same pin-point: two demand-paged
    // tenants with overlapping VAs time-share an IOMMU GPU. Pins the
    // ASID key plumbing, fault/shootdown/context-switch accounting
    // and slice interleaving ("os.*"/"mt.*" counters) byte-for-byte.
    MultiTenantConfig cfg = defaultMultiTenant(goldenParams().scale);
    cfg.params = goldenParams();
    cfg.system.numCores = 4;
    cfg.blocksPerSlice = 2;

    const MultiTenantResult res = runMultiTenant(cfg);
    const std::string current = res.statsJson + "\n";
    const std::string path =
        std::string(GPUMMU_GOLDEN_DIR) + "/multi_tenant.json";

    if (update_golden) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << current;
        SUCCEED() << "updated " << path;
        return;
    }

    const std::string golden = readFile(path);
    ASSERT_FALSE(golden.empty())
        << "missing golden " << path
        << "; run test_golden_stats --update-golden";
    EXPECT_EQ(golden, current)
        << "multi-tenant simulated behaviour changed; if "
           "intentional, regenerate with --update-golden and review "
           "the diff";
}

int
main(int argc, char **argv)
{
    // Strip our flag before gtest sees the arguments.
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            update_golden = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
