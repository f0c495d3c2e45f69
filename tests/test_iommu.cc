/**
 * @file
 * Unit and integration tests for the IOMMU baseline.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "mmu/iommu.hh"
#include "sim/stats.hh"
#include "vm/process.hh"

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
    StatRegistry reg;
    iommu.regStats(reg, "iommu");
    std::vector<int> order;
    std::vector<Cycle> when;
    for (int i = 0; i < 3; ++i) {
        iommu.translate(vpn(5), 0, [&, i](std::uint64_t, Cycle c) {
            order.push_back(i);
            when.push_back(c);
        });
    }
    eq.runUntil(1'000'000);
    // One walk wakes every merged request, in request order, at the
    // walk's completion cycle.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    ASSERT_EQ(when.size(), 3u);
    EXPECT_EQ(when[1], when[0]);
    EXPECT_EQ(when[2], when[0]);
    EXPECT_EQ(iommu.walkers().walksCompleted(), 1u);
    EXPECT_EQ(reg.findCounter("iommu.merged_walks")->value(), 2u);
}

TEST(IommuFaults, RequestMergesWhileItsPageFaultIsServiced)
{
    PhysicalMemory phys(1ULL << 20, /*scramble=*/false);
    OsConfig os;
    ProcessManager pm(phys, os);
    Process &p = pm.create("tenant", false, /*lazy=*/true);
    const VmRegion r = p.as.mmap("d", 8 * kPageSize4K);
    const Vpn key = asidKey(p.asid, r.base >> kPageShift4K);

    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;
    IommuConfig icfg;
    icfg.checkInvariants = true;
    Iommu iommu(icfg, p.as, mem, eq);
    iommu.attachProcesses(&pm);
    StatRegistry reg;
    iommu.regStats(reg, "iommu");

    // The first request faults; the second arrives while the OS
    // handler is still running and merges behind it.
    const Cycle first = 5;
    const Cycle second = first + os.faultLatency / 2;
    Cycle done_first = 0, done_second = 0;
    eq.runUntil(first);
    iommu.translate(key, first,
                    [&](std::uint64_t, Cycle c) { done_first = c; });
    eq.runUntil(second);
    ASSERT_EQ(done_first, 0u) << "the fault is still being serviced";
    iommu.translate(key, second,
                    [&](std::uint64_t, Cycle c) { done_second = c; });
    eq.runUntil(1'000'000);

    EXPECT_EQ(pm.faults(), 1u);
    EXPECT_EQ(iommu.walkers().walksCompleted(), 1u);
    EXPECT_EQ(reg.findCounter("iommu.merged_walks")->value(), 1u);
    ASSERT_GT(done_first, second);
    EXPECT_EQ(done_second, done_first);
    // One miss-latency sample, timed from the first request: the
    // merged request does not restart the owner's clock.
    const Histogram *lat = reg.findHistogram("iommu.miss_latency");
    ASSERT_EQ(lat->count(), 1u);
    EXPECT_EQ(lat->sum(), done_first - first);
    iommu.checkEndOfKernel();
}

using IommuDeathTest = IommuFixture;

TEST_F(IommuDeathTest, KernelEndNamesTheSmallestOutstandingVpn)
{
    // A hang explains itself: the smallest outstanding VPN is named
    // with the requests waiting on it.
    IommuConfig cfg;
    cfg.checkInvariants = true;
    Iommu iommu(cfg, as, mem, eq);
    const auto ignore = [](std::uint64_t, Cycle) {};
    iommu.translate(vpn(9), 0, ignore);
    iommu.translate(vpn(4), 0, ignore);
    iommu.translate(vpn(4), 0, ignore);
    EXPECT_DEATH(iommu.checkEndOfKernel(),
                 "2 VPNs still outstanding in the IOMMU at kernel end "
                 "\\(smallest: VPN " +
                     std::to_string(vpn(4)) + " of asid 0, 2 waiters\\)");
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
