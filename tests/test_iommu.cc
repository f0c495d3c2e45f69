/**
 * @file
 * Unit and integration tests for the IOMMU baseline.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "mmu/iommu.hh"

using namespace gpummu;

namespace {

struct IommuFixture : public ::testing::Test
{
    IommuFixture()
        : phys(1 << 20, false), as(phys), mem(MemorySystemConfig{})
    {
        region = as.mmap("d", 64 * kPageSize4K);
    }

    Vpn
    vpn(unsigned page) const
    {
        return (region.base >> kPageShift4K) + page;
    }

    PhysicalMemory phys;
    AddressSpace as;
    MemorySystem mem;
    EventQueue eq;
    VmRegion region;
};

} // namespace

TEST_F(IommuFixture, MissWalksThenHits)
{
    Iommu iommu(IommuConfig{}, as, mem, eq);
    std::uint64_t frame = ~0ULL;
    Cycle when = 0;
    iommu.translate(vpn(3), 0, [&](std::uint64_t f, Cycle c) {
        frame = f;
        when = c;
    });
    eq.runUntil(1'000'000);
    EXPECT_EQ(frame, as.pageTable().translate(vpn(3))->ppn);
    EXPECT_GT(when, IommuConfig{}.lookupLatency);

    // Second translation: TLB hit, synchronous, cheap.
    bool hit_fired = false;
    const Cycle t = eq.now();
    iommu.translate(vpn(3), t, [&](std::uint64_t f, Cycle c) {
        hit_fired = true;
        EXPECT_EQ(f, frame);
        EXPECT_LE(c, t + IommuConfig{}.lookupLatency +
                         IommuConfig{}.lookupInterval);
    });
    EXPECT_TRUE(hit_fired);
}

TEST_F(IommuFixture, ConcurrentWalksToSamePageMerge)
{
    Iommu iommu(IommuConfig{}, as, mem, eq);
    int fires = 0;
    for (int i = 0; i < 3; ++i) {
        iommu.translate(vpn(5), 0,
                        [&](std::uint64_t, Cycle) { ++fires; });
    }
    eq.runUntil(1'000'000);
    EXPECT_EQ(fires, 3);
    EXPECT_EQ(iommu.walkers().walksCompleted(), 1u);
}

TEST_F(IommuFixture, SharedPortSerializesLookups)
{
    IommuConfig cfg;
    cfg.lookupInterval = 10;
    Iommu iommu(cfg, as, mem, eq);
    // Warm two entries.
    iommu.translate(vpn(1), 0, [](std::uint64_t, Cycle) {});
    iommu.translate(vpn(2), 0, [](std::uint64_t, Cycle) {});
    eq.runUntil(1'000'000);
    const Cycle t = eq.now();
    Cycle first = 0, second = 0;
    iommu.translate(vpn(1), t,
                    [&](std::uint64_t, Cycle c) { first = c; });
    iommu.translate(vpn(2), t,
                    [&](std::uint64_t, Cycle c) { second = c; });
    EXPECT_EQ(second - first, cfg.lookupInterval);
}

TEST(IommuSystem, RunsAndDegradesLessThanNaivePerCore)
{
    WorkloadParams p;
    p.scale = 0.04;
    p.seed = 42;
    Experiment exp(p);
    auto shrink = [](SystemConfig cfg) {
        cfg.numCores = 4;
        return cfg;
    };
    const auto base = shrink(presets::noTlb());
    const auto io = shrink(presets::iommu());
    const auto naive = shrink(presets::naiveTlb(4));

    const double s_io =
        exp.speedup(BenchmarkId::Memcached, io, base);
    const double s_naive =
        exp.speedup(BenchmarkId::Memcached, naive, base);
    EXPECT_LT(s_io, 1.0);  // translation is never free
    EXPECT_GT(s_io, 0.05); // and the run completes sanely
    // With a 1024-entry TLB and translation off the L1-hit path, the
    // IOMMU handily beats the naive blocking per-core design here.
    EXPECT_GT(s_io, s_naive);
}

TEST(IommuSystem, Deterministic)
{
    WorkloadParams p;
    p.scale = 0.03;
    p.seed = 9;
    auto cfg = presets::iommu();
    cfg.numCores = 2;
    const auto a = runConfig(BenchmarkId::Bfs, cfg, p);
    const auto b = runConfig(BenchmarkId::Bfs, cfg, p);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(IommuSystem, TbcCoresOnTheIommuAreRejected)
{
    // TbcCore has no IOMMU path: a TBC + IOMMU config must fail loudly,
    // naming the config, instead of silently running SIMT cores.
    auto cfg = presets::tbc(presets::iommu());
    cfg.numCores = 1;
    WorkloadParams p;
    p.scale = 0.02;
    ASSERT_EQ(cfg.name, "iommu+tbc");
    EXPECT_EXIT(runConfig(BenchmarkId::Bfs, cfg, p),
                ::testing::ExitedWithCode(1),
                "config 'iommu\\+tbc' is invalid:\n  coreKind \\(Tbc\\) "
                "has no IOMMU path");
}
