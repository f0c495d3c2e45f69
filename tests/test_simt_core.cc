/**
 * @file
 * Tests for the per-warp-stack shader core running small kernels end
 * to end on one core.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "gpu/gpu_top.hh"
#include "gpu/simt_core.hh"
#include "workloads/workload.hh"

using namespace gpummu;

namespace {

/** A tiny synthetic workload with a loop and a divergent branch. */
class TinyWorkload : public Workload
{
  public:
    TinyWorkload(unsigned blocks, unsigned iters, double active_p)
        : Workload(WorkloadParams{}), prog_("tiny"), blocks_(blocks),
          iters_(iters), activeP_(active_p)
    {
    }

    std::string name() const override { return "tiny"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 64; }
    unsigned numBlocks() const override { return blocks_; }

    void
    build(AddressSpace &as) override
    {
        region_ = as.mmap("tiny.data", 64 * kPageSize4K);
        const int stream = prog_.addAddrGen([this](ThreadCtx &c) {
            return region_.base +
                   (static_cast<VirtAddr>(c.globalTid) * 4 +
                    c.visits(1) * 256) %
                       region_.bytes;
        });
        const int active = prog_.addCondGen([this](ThreadCtx &c) {
            return c.rng.chance(activeP_);
        });
        const int loop = prog_.addCondGen([this](ThreadCtx &c) {
            return c.visits(1) < iters_;
        });
        const int b0 = prog_.addBlock();
        const int b1 = prog_.addBlock(); // loop head
        const int b2 = prog_.addBlock(); // divergent work
        const int b3 = prog_.addBlock(); // join
        const int b4 = prog_.addBlock(); // exit
        prog_.appendAlu(b0, 1);
        prog_.appendBranch(b0, -1, b1, -1, -1);
        prog_.appendLoad(b1, stream);
        prog_.appendAlu(b1, 2);
        prog_.appendBranch(b1, active, b2, b3, b3);
        prog_.appendAlu(b2, 3);
        prog_.appendStore(b2, stream);
        prog_.appendBranch(b2, -1, b3, -1, -1);
        prog_.appendBranch(b3, loop, b1, b4, b4);
        prog_.appendExit(b4);
    }

  private:
    KernelProgram prog_;
    unsigned blocks_;
    unsigned iters_;
    double activeP_;
    VmRegion region_;
};

/** One block of two warps; each loads one line of the same page. */
class SamePageLoadWorkload : public Workload
{
  public:
    SamePageLoadWorkload() : Workload(WorkloadParams{}), prog_("page")
    {
    }

    std::string name() const override { return "page"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 64; }
    unsigned numBlocks() const override { return 1; }

    void
    build(AddressSpace &as) override
    {
        region_ = as.mmap("page.data", kPageSize4K);
        const int addr = prog_.addAddrGen([this](ThreadCtx &c) {
            return region_.base + static_cast<VirtAddr>(c.globalTid) * 4;
        });
        const int b0 = prog_.addBlock();
        prog_.appendLoad(b0, addr);
        prog_.appendExit(b0);
    }

  private:
    KernelProgram prog_;
    VmRegion region_;
};

/**
 * Each warp diverges once on lane parity: the taken path exits at
 * once, the other path loads again first. Every lane loads its own
 * page, so misses are plentiful. Ten instructions per warp.
 */
class ExitingPathWorkload : public Workload
{
  public:
    explicit ExitingPathWorkload(unsigned blocks)
        : Workload(WorkloadParams{}), prog_("exiting"), blocks_(blocks)
    {
    }

    std::string name() const override { return "exiting"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 64; }
    unsigned numBlocks() const override { return blocks_; }

    void
    build(AddressSpace &as) override
    {
        region_ = as.mmap("exiting.data", 256 * kPageSize4K);
        const int addr = prog_.addAddrGen([this](ThreadCtx &c) {
            const auto page = (static_cast<VirtAddr>(c.globalTid) * 37 +
                               c.visits(2) * 101) %
                              256;
            return region_.base + page * kPageSize4K;
        });
        const int odd = prog_.addCondGen(
            [](ThreadCtx &c) { return c.laneId % 2 == 1; });
        const int b0 = prog_.addBlock();
        const int b1 = prog_.addBlock(); // taken: exits
        const int b2 = prog_.addBlock(); // fall: loads again
        const int b3 = prog_.addBlock(); // join
        prog_.appendLoad(b0, addr);
        prog_.appendAlu(b0, 1);
        prog_.appendBranch(b0, odd, b1, b2, b3);
        prog_.appendAlu(b1, 1);
        prog_.appendExit(b1);
        prog_.appendAlu(b2, 1);
        prog_.appendLoad(b2, addr);
        prog_.appendBranch(b2, -1, b3, -1, -1);
        prog_.appendAlu(b3, 1);
        prog_.appendExit(b3);
    }

  private:
    KernelProgram prog_;
    unsigned blocks_;
    VmRegion region_;
};

/**
 * One warp: @p loads loads of one shared line, then @p alus ALU
 * instructions, then exit.
 */
class OneWarpWorkload : public Workload
{
  public:
    OneWarpWorkload(unsigned loads, unsigned alus)
        : Workload(WorkloadParams{}), prog_("onewarp"), loads_(loads),
          alus_(alus)
    {
    }

    std::string name() const override { return "onewarp"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 32; }
    unsigned numBlocks() const override { return 1; }

    void
    build(AddressSpace &as) override
    {
        region_ = as.mmap("onewarp.data", kPageSize4K);
        const int addr = prog_.addAddrGen([this](ThreadCtx &c) {
            return region_.base + static_cast<VirtAddr>(c.laneId) * 4;
        });
        const int b0 = prog_.addBlock();
        for (unsigned i = 0; i < loads_; ++i)
            prog_.appendLoad(b0, addr);
        prog_.appendAlu(b0, alus_);
        prog_.appendExit(b0);
    }

  private:
    KernelProgram prog_;
    unsigned loads_;
    unsigned alus_;
    VmRegion region_;
};

/** Records the cycles in which a memory instruction issued. */
class MemIssueRecordingCore : public SimtCore
{
  public:
    using SimtCore::SimtCore;

    void
    tick(Cycle now) override
    {
        const std::uint64_t before = memInstructionsIssued();
        SimtCore::tick(now);
        if (memInstructionsIssued() != before)
            memIssues.push_back(now);
    }

    std::vector<Cycle> memIssues;
};

RunStats
runTiny(const CoreConfig &core_cfg, unsigned blocks = 4,
        unsigned iters = 6, double active = 0.5,
        unsigned num_cores = 2)
{
    TinyWorkload wl(blocks, iters, active);
    GpuTop gpu(
        num_cores, MemorySystemConfig{}, wl,
        [&core_cfg](int id, const LaunchParams &l, AddressSpace &as,
                    MemorySystem &m,
                    EventQueue &e) -> std::unique_ptr<ShaderCore> {
            return std::make_unique<SimtCore>(id, core_cfg, l, as, m,
                                              e);
        });
    return gpu.run(50'000'000);
}

/** Counts its ticks; otherwise a plain SimtCore that may sleep. */
class CountingCore : public SimtCore
{
  public:
    using SimtCore::SimtCore;

    void
    tick(Cycle now) override
    {
        ++ticks;
        SimtCore::tick(now);
    }

    std::uint64_t ticks = 0;
};

/** Never reports a quiescent tick, so the cycle loop ticks it every
 *  cycle: the per-cycle reference for a sleeping core's charges. */
class AwakeCore : public SimtCore
{
  public:
    using SimtCore::SimtCore;
    bool lastTickQuiescent() const override { return false; }
};

struct TinyDump
{
    RunStats stats;
    std::string json;
    std::uint64_t ticks = 0;
};

/** Run the tiny kernel on two cores of type @p CoreT and dump the
 *  whole stat registry (stall histograms included). */
template <typename CoreT>
TinyDump
runTinyDump(const CoreConfig &core_cfg, bool gto = false)
{
    TinyWorkload wl(/*blocks=*/8, /*iters=*/10, /*active_p=*/0.5);
    std::vector<CoreT *> cores;
    GpuTop gpu(2, MemorySystemConfig{}, wl,
               [&](int id, const LaunchParams &l, AddressSpace &as,
                   MemorySystem &m,
                   EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   auto core = std::make_unique<CoreT>(id, core_cfg, l,
                                                       as, m, e);
                   if (gto)
                       core->setScheduler(
                           std::make_unique<GreedyThenOldest>());
                   cores.push_back(core.get());
                   return core;
               });
    TinyDump out;
    out.stats = gpu.run(50'000'000);
    std::ostringstream os;
    gpu.stats().dumpJson(os);
    out.json = os.str();
    if constexpr (std::is_same_v<CoreT, CountingCore>) {
        for (const CountingCore *c : cores)
            out.ticks += c->ticks;
    }
    return out;
}

} // namespace

TEST(SimtCore, SleepingChargesEqualTickingEveryCycle)
{
    // A sleeping core is not ticked; its skipped cycles and its
    // warps' waits are charged lazily. Ticking every cycle instead
    // must give the same stats to the last stall cycle, on each MMU
    // policy: the blocking TLB's gate (charged per cycle while
    // asleep), the hit-under-miss bounce (walker drain waits) and no
    // TLB at all. Both pure schedulers (LRR, GTO) may sleep.
    CoreConfig blocking;
    blocking.mmu.hitUnderMiss = false;
    CoreConfig hit_under_miss;
    hit_under_miss.mmu.hitUnderMiss = true;
    CoreConfig no_tlb;
    no_tlb.mmu.enabled = false;
    for (const bool gto : {false, true}) {
        for (const CoreConfig &cfg :
             {blocking, hit_under_miss, no_tlb}) {
            SCOPED_TRACE(gto ? "GTO" : "LRR");
            const TinyDump sleeping =
                runTinyDump<CountingCore>(cfg, gto);
            const TinyDump awake = runTinyDump<AwakeCore>(cfg, gto);
            EXPECT_TRUE(sleeping.stats == awake.stats);
            EXPECT_EQ(sleeping.json, awake.json);
            EXPECT_EQ(awake.stats.cyclesFastForwarded, 0u);
            // ...and the sleeping run really skipped ticks.
            EXPECT_LT(sleeping.ticks, 2 * sleeping.stats.cycles);
        }
    }
}

TEST(SimtCore, SleepsInTheTickThatEmptiesItsDueSet)
{
    // One warp runs an ALU chain with the 2-cycle latency. A tick
    // that issues leaves no warp due until the next issue cycle, so
    // the core sleeps in that tick rather than after an idle one: one
    // tick per instruction.
    const unsigned alus = 200;
    OneWarpWorkload wl(/*loads=*/0, alus);
    CountingCore *core = nullptr;
    GpuTop gpu(1, MemorySystemConfig{}, wl,
               [&](int id, const LaunchParams &l, AddressSpace &as,
                   MemorySystem &m,
                   EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   auto c = std::make_unique<CountingCore>(
                       id, CoreConfig{}, l, as, m, e);
                   core = c.get();
                   return c;
               });
    const RunStats stats = gpu.run(1'000'000);
    ASSERT_EQ(stats.instructions, alus + 1u);
    EXPECT_EQ(core->ticks, stats.instructions);
    // Each ALU's second latency cycle was skipped and charged idle.
    EXPECT_EQ(core->idleCycles(), alus);
}

TEST(SimtCore, FarWaitIssuesInTheCycleItsDataArrives)
{
    // No TLB: the first load completes at issue with its line's DRAM
    // round trip, a ready cycle far past the near tier. The warp has
    // nothing else to run, so its second load (to the same line) must
    // issue exactly when the first one's data arrives.
    CoreConfig cfg;
    cfg.mmu.enabled = false;
    OneWarpWorkload wl(/*loads=*/2, /*alus=*/0);
    MemIssueRecordingCore *core = nullptr;
    GpuTop gpu(1, MemorySystemConfig{}, wl,
               [&](int id, const LaunchParams &l, AddressSpace &as,
                   MemorySystem &m,
                   EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   auto c = std::make_unique<MemIssueRecordingCore>(
                       id, cfg, l, as, m, e);
                   core = c.get();
                   return c;
               });
    gpu.run(1'000'000);
    ASSERT_EQ(core->memIssues.size(), 2u);
    const Histogram &miss = core->l1().missLatency();
    ASSERT_EQ(miss.count(), 1u);
    EXPECT_GT(miss.sum(), 64u);
    EXPECT_EQ(core->memIssues[1], core->memIssues[0] + miss.sum());
}

TEST(SimtCore, GatedWarpIssuesInTheCycleTheMissBatchRetires)
{
    // Blocking TLB, one core: the first warp's load misses and walks.
    // The second warp's load sits at the TLB gate, the core has
    // nothing else to do and sleeps, and the first warp's own wake
    // (its data) lies past the walk. The retiring batch must wake the
    // core in its own cycle, so the gated load issues right then.
    const CoreConfig cfg = presets::naiveTlb().core;
    SamePageLoadWorkload wl;
    MemIssueRecordingCore *core = nullptr;
    GpuTop gpu(1, MemorySystemConfig{}, wl,
               [&](int id, const LaunchParams &l, AddressSpace &as,
                   MemorySystem &m,
                   EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   auto c = std::make_unique<MemIssueRecordingCore>(
                       id, cfg, l, as, m, e);
                   core = c.get();
                   return c;
               });
    const RunStats stats = gpu.run(1'000'000);
    ASSERT_EQ(core->memIssues.size(), 2u);
    // One miss batch: the second load hits the page the first filled.
    const Histogram &miss = core->mmu().missLatency();
    ASSERT_EQ(miss.count(), 1u);
    const Cycle batch_start =
        core->memIssues[0] +
        cfg.mmu.cacti.accessPenalty(cfg.mmu.tlb.entries,
                                    cfg.mmu.tlb.ports);
    const Cycle retired = batch_start + miss.sum();
    EXPECT_EQ(core->memIssues[1], retired);
    EXPECT_EQ(stats.tlbAccesses, 2u);
    EXPECT_EQ(stats.tlbHits, 1u);
}

TEST(SimtCore, RunsToCompletion)
{
    auto stats = runTiny(CoreConfig{});
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.instructions, 0u);
    EXPECT_GT(stats.memInstructions, 0u);
}

TEST(SimtCore, InstructionCountScalesExactlyWithIterations)
{
    // With activity probability 0 the divergent block never runs, so
    // adding one loop iteration adds exactly one pass over b1 (load +
    // 2 alu + branch) and b3's branch per warp: 5 instructions.
    auto four = runTiny(CoreConfig{}, /*blocks=*/2, /*iters=*/4,
                        /*active=*/0.0, /*cores=*/1);
    auto five = runTiny(CoreConfig{}, /*blocks=*/2, /*iters=*/5,
                        /*active=*/0.0, /*cores=*/1);
    const unsigned warps = 2 * (64 / 32);
    EXPECT_EQ(five.instructions - four.instructions, warps * 5u);
}

TEST(SimtCore, FullyActiveBranchNeverDiverges)
{
    auto a = runTiny(CoreConfig{}, 2, 4, 1.0, 1);
    auto b = runTiny(CoreConfig{}, 2, 4, 0.5, 1);
    // With p=1 all threads take the branch together; with p=0.5 the
    // divergent path roughly doubles the executed blocks.
    EXPECT_LT(a.instructions, b.instructions + 16 * 4 * 4);
}

TEST(SimtCore, DeterministicAcrossRuns)
{
    auto a = runTiny(CoreConfig{});
    auto b = runTiny(CoreConfig{});
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.tlbAccesses, b.tlbAccesses);
}

TEST(SimtCore, TlbConfigChangesTiming)
{
    CoreConfig no_tlb;
    no_tlb.mmu.enabled = false;
    CoreConfig blocking;
    blocking.mmu.enabled = true;
    blocking.mmu.hitUnderMiss = false;
    auto base = runTiny(no_tlb);
    auto naive = runTiny(blocking);
    EXPECT_GT(naive.cycles, base.cycles);
    EXPECT_GT(naive.tlbAccesses, 0u);
}

TEST(SimtCore, HitUnderMissBeatsBlockingHere)
{
    CoreConfig blocking;
    blocking.mmu.hitUnderMiss = false;
    CoreConfig hum;
    hum.mmu.hitUnderMiss = true;
    hum.mmu.cacheOverlap = true;
    hum.mmu.ptw.scheduling = true;
    auto b = runTiny(blocking, 8, 10, 0.5, 2);
    auto h = runTiny(hum, 8, 10, 0.5, 2);
    EXPECT_LE(h.cycles, b.cycles);
}

TEST(SimtCore, BlocksDrainAcrossWaves)
{
    // More blocks than can be resident at once (64-thread blocks,
    // 48 warp slots -> 24 resident blocks per core; run 60 on 1 core).
    auto stats = runTiny(CoreConfig{}, /*blocks=*/60, 3, 0.4, 1);
    EXPECT_GT(stats.instructions, 0u);
}

TEST(SimtCore, NextInstructionFollowsExitsBouncesAndSlotReuse)
{
    // A warp's next instruction changes under an exit that leaves
    // lanes behind, stays put across a hit-under-miss bounce and
    // starts over when a later block reuses the retired warp's slot
    // (60 two-warp blocks, 24 resident at a time). Each warp runs
    // exactly 10 instructions, 2 of them loads.
    CoreConfig cfg;
    cfg.mmu.hitUnderMiss = true;
    ExitingPathWorkload wl(/*blocks=*/60);
    SimtCore *core = nullptr;
    GpuTop gpu(1, MemorySystemConfig{}, wl,
               [&](int id, const LaunchParams &l, AddressSpace &as,
                   MemorySystem &m,
                   EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   auto c = std::make_unique<SimtCore>(id, cfg, l, as,
                                                       m, e);
                   core = c.get();
                   return c;
               });
    const RunStats stats = gpu.run(2'000'000);
    const unsigned warps = 60 * 2;
    EXPECT_EQ(stats.instructions, warps * 10u);
    EXPECT_EQ(stats.memInstructions, warps * 2u);
    EXPECT_EQ(core->blocksCompleted(), 60u);
    EXPECT_GT(core->memStage().tlbBusyBounces(), 0u);
}

TEST(SimtCore, CoreTooSmallForOneBlockIsRejected)
{
    // 64-thread blocks need two warp slots. With one, no block could
    // ever be dispatched and the run would tick idle cores to its
    // cycle budget; the constructor refuses the config instead.
    CoreConfig tiny;
    tiny.numWarpSlots = 1;
    EXPECT_EXIT(runTiny(tiny), ::testing::ExitedWithCode(1),
                "numWarpSlots \\(1\\) must hold the 2 warps of one block");

    // The same through a preset: bfs's 256-thread blocks need 8.
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 4;
    cfg.core.numWarpSlots = 4;
    WorkloadParams p;
    p.scale = 0.05;
    EXPECT_EXIT(runConfig(BenchmarkId::Bfs, cfg, p),
                ::testing::ExitedWithCode(1),
                "numWarpSlots \\(4\\) must hold the 8 warps of one block");
}

TEST(SimtCore, MmuMshrsAreUnusedWithoutAPerCoreMmu)
{
    CoreConfig no_tlb;
    no_tlb.mmu.enabled = false;
    no_tlb.mmu.mshrs = 0;
    EXPECT_GT(runTiny(no_tlb).instructions, 0u);
}

TEST(SimtCore, SixtyFourWarpSlotsUseTheWholeMask)
{
    // Slot 63 is the mask's top bit. Branch outcomes depend only on
    // per-thread RNG streams, so the instruction count is the same
    // at any occupancy.
    CoreConfig wide;
    wide.numWarpSlots = 64;
    const auto a = runTiny(wide, /*blocks=*/40, 3, 0.4, 1);
    const auto b = runTiny(CoreConfig{}, /*blocks=*/40, 3, 0.4, 1);
    EXPECT_GT(a.instructions, 0u);
    EXPECT_EQ(a.instructions, b.instructions);
}
