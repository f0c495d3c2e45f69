/**
 * @file
 * Tests for the thread-block-compaction shader core.
 */

#include <gtest/gtest.h>

#include <memory>

#include "gpu/gpu_top.hh"
#include "tbc/tbc_core.hh"
#include "workloads/workload.hh"

using namespace gpummu;

namespace {

class DivergentWorkload : public Workload
{
  public:
    explicit DivergentWorkload(double active_p = 0.5)
        : Workload(WorkloadParams{}), prog_("div"), activeP_(active_p)
    {
    }

    std::string name() const override { return "div"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 128; }
    unsigned numBlocks() const override { return 4; }

    void
    build(AddressSpace &as) override
    {
        region_ = as.mmap("div.data", 128 * kPageSize4K);
        // Page chosen by the thread's *original* warp: compacted
        // warps mixing origins raise page divergence, as in the paper.
        const int warp_page = prog_.addAddrGen([this](ThreadCtx &c) {
            const std::uint64_t page =
                (static_cast<std::uint64_t>(c.warpInBlock) * 13 +
                 c.visits(1)) %
                regionPages();
            return region_.base + page * kPageSize4K +
                   static_cast<VirtAddr>(c.laneId) * 8;
        });
        const int active = prog_.addCondGen([this](ThreadCtx &c) {
            return c.rng.chance(activeP_);
        });
        const int loop = prog_.addCondGen(
            [](ThreadCtx &c) { return c.visits(1) < 5; });
        const int b0 = prog_.addBlock();
        const int b1 = prog_.addBlock();
        const int b2 = prog_.addBlock();
        const int b3 = prog_.addBlock();
        const int b4 = prog_.addBlock();
        prog_.appendAlu(b0, 1);
        prog_.appendBranch(b0, -1, b1, -1, -1);
        prog_.appendAlu(b1, 1);
        prog_.appendBranch(b1, active, b2, b3, b3);
        prog_.appendLoad(b2, warp_page);
        prog_.appendAlu(b2, 2);
        prog_.appendBranch(b2, -1, b3, -1, -1);
        prog_.appendAlu(b3, 1);
        prog_.appendBranch(b3, loop, b1, b4, b4);
        prog_.appendExit(b4);
    }

    std::uint64_t
    regionPages() const
    {
        return region_.bytes >> kPageShift4K;
    }

  private:
    KernelProgram prog_;
    double activeP_;
    VmRegion region_;
};

struct TbcRun
{
    RunStats stats;
    std::uint64_t compactions = 0;
    std::uint64_t dynWarps = 0;
};

TbcRun
runDivergent(const TbcConfig &tbc, double active_p = 0.5,
             CoreConfig core_cfg = CoreConfig{})
{
    DivergentWorkload wl(active_p);
    std::vector<TbcCore *> cores;
    GpuTop gpu(
        2, MemorySystemConfig{}, wl,
        [&](int id, const LaunchParams &l, AddressSpace &as,
            MemorySystem &m,
            EventQueue &e) -> std::unique_ptr<ShaderCore> {
            auto core = std::make_unique<TbcCore>(id, core_cfg, tbc,
                                                  l, as, m, e);
            cores.push_back(core.get());
            return core;
        });
    TbcRun out;
    out.stats = gpu.run(50'000'000);
    for (auto *c : cores) {
        out.compactions += c->compactions();
        out.dynWarps += c->dynamicWarpsFormed();
    }
    return out;
}

} // namespace

TEST(TbcCore, RunsToCompletionAndCompacts)
{
    auto run = runDivergent(TbcConfig{});
    EXPECT_GT(run.stats.cycles, 0u);
    EXPECT_GT(run.stats.instructions, 0u);
    EXPECT_GT(run.compactions, 0u);
    EXPECT_GT(run.dynWarps, run.compactions);
}

TEST(TbcCore, CompactionSavesWarpInstructionsOnDivergentCode)
{
    // With 50% active threads the divergent block runs on compacted
    // warps (about half as many as the static warp count).
    auto half = runDivergent(TbcConfig{}, 0.5);
    auto full = runDivergent(TbcConfig{}, 1.0);
    // Full activity executes MORE total work but uses full warps;
    // instruction count per executed block stays proportional.
    EXPECT_GT(half.dynWarps, 0u);
    EXPECT_GT(full.dynWarps, 0u);
    // At 50% activity, the average dynamic warps per compaction of
    // the divergent block must be below the static warp count (4).
    const double per_compact =
        static_cast<double>(half.dynWarps) /
        static_cast<double>(half.compactions);
    EXPECT_LT(per_compact, 4.01);
}

TEST(TbcCore, DeterministicAcrossRuns)
{
    auto a = runDivergent(TbcConfig{});
    auto b = runDivergent(TbcConfig{});
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.instructions, b.stats.instructions);
}

TEST(TbcCore, TlbAwareCompactionReducesPageDivergence)
{
    TbcConfig agnostic;
    TbcConfig aware;
    aware.tlbAware = true;
    aware.cpm.counterBits = 3;

    CoreConfig with_tlb;
    with_tlb.mmu.enabled = true;
    with_tlb.mmu.hitUnderMiss = true;
    with_tlb.mmu.cacheOverlap = true;
    with_tlb.mmu.ptw.scheduling = true;

    auto agn = runDivergent(agnostic, 0.5, with_tlb);
    auto awr = runDivergent(aware, 0.5, with_tlb);
    EXPECT_LE(awr.stats.avgPageDivergence,
              agn.stats.avgPageDivergence + 0.01);
    // The aware compactor may form more (narrower) warps.
    EXPECT_GE(awr.dynWarps + 8, agn.dynWarps);
}

TEST(TbcCore, WithTlbSlowerThanWithout)
{
    CoreConfig no_tlb;
    no_tlb.mmu.enabled = false;
    CoreConfig naive;
    naive.mmu.enabled = true;
    auto base = runDivergent(TbcConfig{}, 0.5, no_tlb);
    auto tlb = runDivergent(TbcConfig{}, 0.5, naive);
    EXPECT_GT(tlb.stats.cycles, base.stats.cycles);
}

TEST(TbcCore, CoreTooSmallForOneBlockIsRejected)
{
    // 128-thread blocks need four warp slots; with three no block
    // could ever be dispatched.
    CoreConfig tiny;
    tiny.numWarpSlots = 3;
    EXPECT_EXIT(runDivergent(TbcConfig{}, 0.5, tiny),
                ::testing::ExitedWithCode(1),
                "TbcCore: numWarpSlots \\(3\\) is below the 4 warps");
}
