/**
 * @file
 * Parameterized tests over the six benchmark models: structural
 * validity, address generators staying inside their regions, and
 * deterministic behaviour.
 */

#include <gtest/gtest.h>

#include "vm/address_space.hh"
#include "workloads/patterns.hh"
#include "workloads/workload.hh"

using namespace gpummu;

class WorkloadTest : public ::testing::TestWithParam<BenchmarkId>
{
  protected:
    WorkloadParams
    smallParams() const
    {
        WorkloadParams p;
        p.scale = 0.05;
        p.seed = 7;
        return p;
    }
};

TEST_P(WorkloadTest, BuildsValidProgram)
{
    PhysicalMemory phys(1 << 22, false);
    AddressSpace as(phys);
    auto wl = makeWorkload(GetParam(), smallParams());
    wl->build(as);
    wl->program().validate();
    EXPECT_GT(wl->numBlocks(), 0u);
    EXPECT_EQ(wl->threadsPerBlock() % kWarpWidth, 0u);
    EXPECT_EQ(wl->name(), benchmarkName(GetParam()));
}

TEST_P(WorkloadTest, AddressGeneratorsStayInsideRegions)
{
    PhysicalMemory phys(1 << 22, false);
    AddressSpace as(phys);
    auto wl = makeWorkload(GetParam(), smallParams());
    wl->build(as);
    const auto &prog = wl->program();

    // Evaluate every memory instruction's generator for a spread of
    // threads and iterations; every address must fall in a region.
    std::vector<ThreadCtx> ctxs;
    for (int t : {0, 1, 31, 32, 255})
        ctxs.emplace_back(t, t / 256, t % 256, kWarpWidth, 7);
    const std::vector<std::uint32_t> visits(prog.numBlocks(), 3);
    for (auto &ctx : ctxs) {
        ctx.bindVisits(visits.data(), 1,
                       static_cast<unsigned>(visits.size()));
    }

    for (const auto &bb : prog.blocks()) {
        for (const auto &in : bb.instrs) {
            if (in.op != Opcode::Load && in.op != Opcode::Store)
                continue;
            for (auto &ctx : ctxs) {
                for (int rep = 0; rep < 50; ++rep) {
                    const VirtAddr va = prog.genAddr(in.addrGen, ctx);
                    bool inside = false;
                    for (const auto &r : as.regions())
                        inside = inside || r.contains(va);
                    ASSERT_TRUE(inside)
                        << benchmarkName(GetParam()) << " block "
                        << bb.id << " addr " << std::hex << va;
                }
            }
        }
    }
}

TEST_P(WorkloadTest, GeneratorsAreDeterministic)
{
    PhysicalMemory phys1(1 << 22, false), phys2(1 << 22, false);
    AddressSpace as1(phys1), as2(phys2);
    auto w1 = makeWorkload(GetParam(), smallParams());
    auto w2 = makeWorkload(GetParam(), smallParams());
    w1->build(as1);
    w2->build(as2);

    ThreadCtx a(5, 0, 5, kWarpWidth, 7), b(5, 0, 5, kWarpWidth, 7);
    const std::vector<std::uint32_t> visits_a(w1->program().numBlocks(), 2);
    const std::vector<std::uint32_t> visits_b(w2->program().numBlocks(), 2);
    a.bindVisits(visits_a.data(), 1,
                 static_cast<unsigned>(visits_a.size()));
    b.bindVisits(visits_b.data(), 1,
                 static_cast<unsigned>(visits_b.size()));
    const auto &p1 = w1->program();
    const auto &p2 = w2->program();
    for (const auto &bb : p1.blocks()) {
        for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
            const auto &in = bb.instrs[i];
            if (in.op == Opcode::Load || in.op == Opcode::Store) {
                EXPECT_EQ(p1.genAddr(in.addrGen, a),
                          p2.genAddr(
                              p2.block(bb.id).instrs[i].addrGen, b));
            }
        }
    }
}

TEST_P(WorkloadTest, ScaleShrinksFootprintAndGrid)
{
    PhysicalMemory phys1(1 << 22, false), phys2(1 << 22, false);
    AddressSpace small_as(phys1), large_as(phys2);
    WorkloadParams small_p = smallParams();
    WorkloadParams large_p = smallParams();
    large_p.scale = 0.2;
    auto small_wl = makeWorkload(GetParam(), small_p);
    auto large_wl = makeWorkload(GetParam(), large_p);
    small_wl->build(small_as);
    large_wl->build(large_as);
    EXPECT_LT(small_as.mappedBytes(), large_as.mappedBytes());
    EXPECT_LE(small_wl->numBlocks(), large_wl->numBlocks());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadTest,
    ::testing::ValuesIn(allBenchmarks()),
    [](const ::testing::TestParamInfo<BenchmarkId> &info) {
        return benchmarkName(info.param);
    });

// -------------------------------------------------- pattern helpers

TEST(Patterns, WarpWindowStableWithinWarp)
{
    ThreadCtx a(0, 3, 0, kWarpWidth, 9);  // lane 0 of warp 0
    ThreadCtx b(31, 3, 31, kWarpWidth, 9); // lane 31 of warp 0
    ThreadCtx c(32, 3, 32, kWarpWidth, 9); // warp 1
    EXPECT_EQ(warpWindow(a, 1, 5), warpWindow(b, 1, 5));
    EXPECT_NE(warpWindow(a, 1, 5), warpWindow(c, 1, 5));
    EXPECT_NE(warpWindow(a, 1, 5), warpWindow(a, 1, 6));
    EXPECT_NE(warpWindow(a, 1, 5), warpWindow(a, 2, 5));
}

TEST(Patterns, MixedAddrComponentsInRegion)
{
    VmRegion region{"r", 0x100000, 512 * kPageSize4K};
    MixParams mp;
    mp.pHot = 0.3;
    mp.pScatter = 0.2;
    mp.pChaos = 0.1;
    mp.windowPages = 4;
    mp.stickyLen = 3;
    ThreadCtx c(17, 2, 17, kWarpWidth, 3);
    for (int i = 0; i < 2000; ++i) {
        const VirtAddr va = mixedAddr(c, region, mp, i / 10);
        ASSERT_TRUE(region.contains(va));
    }
}

TEST(Patterns, HotComponentIsWarpInvariant)
{
    VmRegion region{"r", 0x100000, 512 * kPageSize4K};
    MixParams mp;
    mp.pHot = 1.0; // always hot
    mp.hotGroups = 1;
    ThreadCtx a(0, 0, 0, kWarpWidth, 3);
    ThreadCtx b(32 + 0, 0, 32, kWarpWidth, 3); // other warp, lane 0
    EXPECT_EQ(mixedAddr(a, region, mp, 4), mixedAddr(b, region, mp, 4));
}

TEST(Patterns, StickyReusesPages)
{
    VmRegion region{"r", 0x100000, 4096 * kPageSize4K};
    MixParams mp;
    mp.pHot = 0.0;
    mp.pScatter = 1.0; // all scatter: only stickiness creates reuse
    mp.stickyLen = 4;
    ThreadCtx c(3, 0, 3, kWarpWidth, 11);
    std::uint64_t prev_page = ~0ULL;
    int repeats = 0;
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t page =
            mixedAddr(c, region, mp, 0) >> kPageShift4K;
        repeats += (page == prev_page);
        prev_page = page;
    }
    // stickyLen 4: roughly 3 of every 4 accesses repeat the page.
    EXPECT_GT(repeats, 250);
}

TEST(Patterns, StreamAddrWrapsAtCapacity)
{
    VmRegion region{"r", 0x1000, 1024};
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const VirtAddr va = streamAddr(region, i, 16);
        ASSERT_TRUE(region.contains(va));
    }
    EXPECT_EQ(streamAddr(region, 0, 16), streamAddr(region, 64, 16));
}
