/**
 * @file
 * Tests for the top-level GPU: breadth-first block dispatch, wave
 * draining, RunStats aggregation, and the cycle loop's sleep, wake
 * and dispatch-polling rules.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "core/experiment.hh"
#include "core/multi_tenant.hh"
#include "core/presets.hh"
#include "core/shared_translation.hh"
#include "dse/autotuner.hh"
#include "dse/grid.hh"
#include "gpu/gpu_top.hh"
#include "gpu/simt_core.hh"
#include "workloads/workload.hh"

using namespace gpummu;

namespace {

/** Minimal compute-only workload: a few ALU ops then exit. */
class ComputeWorkload : public Workload
{
  public:
    explicit ComputeWorkload(unsigned blocks)
        : Workload(WorkloadParams{}), prog_("compute"),
          blocks_(blocks)
    {
    }

    std::string name() const override { return "compute"; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override { return 64; }
    unsigned numBlocks() const override { return blocks_; }

    void
    build(AddressSpace &as) override
    {
        (void)as;
        const int b0 = prog_.addBlock();
        const int b1 = prog_.addBlock();
        prog_.appendAlu(b0, 8);
        prog_.appendBranch(b0, -1, b1, -1, -1);
        prog_.appendExit(b1);
    }

  private:
    KernelProgram prog_;
    unsigned blocks_;
};

/** SimtCore wrapper that records which blocks landed on it. */
class RecordingCore : public SimtCore
{
  public:
    using SimtCore::SimtCore;

    void
    launchBlock(unsigned id) override
    {
        launched.push_back(id);
        SimtCore::launchBlock(id);
    }

    std::vector<unsigned> launched;
};

/** A core that never takes a block: to the cycle loop, what a core
 *  too small for one block looks like. */
class RefusingCore : public SimtCore
{
  public:
    using SimtCore::SimtCore;
    bool canAcceptBlock() const override { return false; }
};

/** A core that never reports idle, so the run cannot end once its
 *  work is done and nothing is left to wake it. */
class NeverIdleCore : public SimtCore
{
  public:
    using SimtCore::SimtCore;
    bool idle() const override { return false; }
};

/** Run @p wl on @p cores cores of type @p CoreT without an MMU. */
template <typename CoreT>
RunStats
runCompute(ComputeWorkload &wl, unsigned cores, CoreConfig cfg,
           Cycle max_cycles)
{
    cfg.mmu.enabled = false;
    GpuTop gpu(cores, MemorySystemConfig{}, wl,
               [&cfg](int id, const LaunchParams &l, AddressSpace &as,
                      MemorySystem &m,
                      EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   return std::make_unique<CoreT>(id, cfg, l, as, m, e);
               });
    return gpu.run(max_cycles);
}

/** Forwards every call to the wrapped core; the test decorators
 *  below override what they observe or script. */
class ForwardingCore : public ShaderCore
{
  public:
    explicit ForwardingCore(std::unique_ptr<ShaderCore> inner)
        : inner_(std::move(inner))
    {
    }

    void tick(Cycle now) override { inner_->tick(now); }
    Cycle wakeHint() const override { return inner_->wakeHint(); }
    bool lastTickQuiescent() const override
    {
        return inner_->lastTickQuiescent();
    }
    void chargeSkipped(Cycle now, Cycle n) override
    {
        inner_->chargeSkipped(now, n);
    }
    void flushDeferredCharges() override
    {
        inner_->flushDeferredCharges();
    }
    bool canAcceptBlock() const override
    {
        return inner_->canAcceptBlock();
    }
    void launchBlock(unsigned id) override { inner_->launchBlock(id); }
    bool idle() const override { return inner_->idle(); }
    Mmu &mmu() override { return inner_->mmu(); }
    L1Cache &l1() override { return inner_->l1(); }
    MemoryStage &memStage() override { return inner_->memStage(); }
    void finalizeRun() override { inner_->finalizeRun(); }
    WarpStallAccounting &stallAccounting() override
    {
        return inner_->stallAccounting();
    }
    std::uint64_t instructionsIssued() const override
    {
        return inner_->instructionsIssued();
    }
    std::uint64_t idleCycles() const override
    {
        return inner_->idleCycles();
    }
    void regStats(StatRegistry &reg, const std::string &prefix) override
    {
        inner_->regStats(reg, prefix);
    }

  protected:
    std::unique_ptr<ShaderCore> inner_;
};

/**
 * Counts the wrapped core's ticks. With @p wake_on_any_event its
 * wakeHint() is 0 once any event fired since its last tick, and each
 * read posts the core's id again, so the cycle loop reads it in every
 * cycle it sleeps and ticks it in every cycle an event fires: the
 * wake rule from before cores were woken only by their own state
 * changes.
 */
class WakeRuleCore final : public ForwardingCore
{
  public:
    WakeRuleCore(std::unique_ptr<ShaderCore> inner, int id,
                 EventQueue &eq, bool wake_on_any_event,
                 std::uint64_t &tick_calls)
        : ForwardingCore(std::move(inner)),
          id_(static_cast<std::uint32_t>(id)), eq_(eq),
          wakeOnAnyEvent_(wake_on_any_event), tickCalls_(tick_calls)
    {
    }

    void
    tick(Cycle now) override
    {
        seen_ = eq_.eventsFired();
        ++tickCalls_;
        inner_->tick(now);
    }
    Cycle
    wakeHint() const override
    {
        if (!wakeOnAnyEvent_)
            return inner_->wakeHint();
        eq_.postWake(id_);
        return eq_.eventsFired() != seen_ ? 0 : inner_->wakeHint();
    }

  private:
    std::uint32_t id_;
    EventQueue &eq_;
    bool wakeOnAnyEvent_;
    std::uint64_t &tickCalls_;
    std::uint64_t seen_ = 0;
};

/**
 * Records the cycles it is ticked in, its hint reads and its block
 * polls. A test lowers its hint through wakeAt(), which posts the
 * core's id as an event callback of a real core does; the next tick
 * clears it. holdHint() lowers it until the next block launch
 * instead, and `open` false refuses blocks.
 */
class ProbeCore final : public ForwardingCore
{
  public:
    ProbeCore(std::unique_ptr<ShaderCore> inner, int id, EventQueue &eq)
        : ForwardingCore(std::move(inner)),
          id_(static_cast<std::uint32_t>(id)), eq_(eq)
    {
    }

    void
    tick(Cycle now) override
    {
        ticks.push_back(now);
        forced_ = kCycleNever;
        refused_ = false;
        inner_->tick(now);
    }
    Cycle
    wakeHint() const override
    {
        ++hintReads;
        return std::min({forced_, held_, inner_->wakeHint()});
    }
    bool
    canAcceptBlock() const override
    {
        if (refused_)
            ++pollsAfterRefusal;
        const bool ok = open && inner_->canAcceptBlock();
        refusals += !ok;
        refused_ = !ok;
        return ok;
    }
    void
    launchBlock(unsigned id) override
    {
        held_ = kCycleNever;
        inner_->launchBlock(id);
    }

    void
    wakeAt(Cycle c)
    {
        forced_ = std::min(forced_, c);
        eq_.postWake(id_);
    }
    void holdHint(Cycle c) { held_ = c; }

    bool open = true;
    std::vector<Cycle> ticks;
    mutable unsigned hintReads = 0;
    mutable unsigned refusals = 0;
    /** canAcceptBlock() calls after a refusal, before the next tick. */
    mutable unsigned pollsAfterRefusal = 0;

  private:
    std::uint32_t id_;
    EventQueue &eq_;
    Cycle forced_ = kCycleNever;
    Cycle held_ = kCycleNever;
    mutable bool refused_ = false;
};

/** A GpuTop over @p n compute-only SimtCores of @p cfg, each wrapped
 *  in a ProbeCore that @p probes collects. */
std::unique_ptr<GpuTop>
probedGpu(Workload &wl, unsigned n, CoreConfig cfg,
          std::vector<ProbeCore *> &probes)
{
    cfg.mmu.enabled = false;
    return std::make_unique<GpuTop>(
        n, MemorySystemConfig{}, wl,
        [cfg, &probes](int id, const LaunchParams &l, AddressSpace &as,
                       MemorySystem &m,
                       EventQueue &e) -> std::unique_ptr<ShaderCore> {
            auto core = std::make_unique<ProbeCore>(
                std::make_unique<SimtCore>(id, cfg, l, as, m, e), id, e);
            probes.push_back(core.get());
            return core;
        });
}

struct WakeRun
{
    RunStats stats;
    std::string json;
    std::uint64_t tickCalls = 0;
    /** Instructions the highest-numbered core issued. */
    std::uint64_t lastCoreInstrs = 0;
};

/** Run @p bench on @p cfg the way runWorkloadFull() wires it, each
 *  core wrapped in a WakeRuleCore. */
WakeRun
runWakeRule(BenchmarkId bench, const SystemConfig &cfg,
            bool wake_on_any_event, double scale = 0.02)
{
    WorkloadParams params;
    params.scale = scale;
    params.seed = 7;
    auto workload = makeWorkload(bench, params);
    SharedTranslation unit(cfg);
    GpuTop::CoreFactory inner = unit.coreFactory();
    WakeRun out;
    GpuTop gpu(cfg.numCores, cfg.mem, *workload,
               [&](int id, const LaunchParams &l, AddressSpace &as,
                   MemorySystem &m,
                   EventQueue &e) -> std::unique_ptr<ShaderCore> {
                   return std::make_unique<WakeRuleCore>(
                       inner(id, l, as, m, e), id, e, wake_on_any_event,
                       out.tickCalls);
               },
               cfg.largePages, cfg.physFrames);
    unit.regStats(gpu.stats());
    out.stats = gpu.run(cfg.maxCycles);
    unit.checkEndOfKernel();
    out.lastCoreInstrs =
        gpu.core(gpu.numCores() - 1).instructionsIssued();
    std::ostringstream os;
    dumpRunStatsJson(os, out.stats);
    gpu.stats().dumpJson(os);
    out.json = os.str();
    return out;
}

} // namespace

TEST(GpuTop, DispatchSpreadsBlocksBreadthFirst)
{
    ComputeWorkload wl(8);
    std::vector<RecordingCore *> cores;
    GpuTop gpu(
        4, MemorySystemConfig{}, wl,
        [&cores](int id, const LaunchParams &l, AddressSpace &as,
                 MemorySystem &m,
                 EventQueue &e) -> std::unique_ptr<ShaderCore> {
            CoreConfig cfg;
            cfg.mmu.enabled = false;
            auto core =
                std::make_unique<RecordingCore>(id, cfg, l, as, m, e);
            cores.push_back(core.get());
            return core;
        });
    gpu.run(1'000'000);
    // 8 blocks over 4 cores: two each, round-robin order for the
    // first wave.
    ASSERT_EQ(cores.size(), 4u);
    for (auto *c : cores)
        EXPECT_EQ(c->launched.size(), 2u);
    EXPECT_EQ(cores[0]->launched[0], 0u);
    EXPECT_EQ(cores[1]->launched[0], 1u);
    EXPECT_EQ(cores[2]->launched[0], 2u);
    EXPECT_EQ(cores[3]->launched[0], 3u);
}

TEST(GpuTop, ManyWavesDrainCompletely)
{
    // 64-thread blocks on a 48-slot core: 24 resident blocks per
    // core; 100 blocks on 2 cores takes multiple waves.
    ComputeWorkload wl(100);
    unsigned total_launched = 0;
    GpuTop gpu(
        2, MemorySystemConfig{}, wl,
        [&total_launched](int id, const LaunchParams &l,
                          AddressSpace &as, MemorySystem &m,
                          EventQueue &e) -> std::unique_ptr<ShaderCore> {
            CoreConfig cfg;
            cfg.mmu.enabled = false;
            auto core =
                std::make_unique<RecordingCore>(id, cfg, l, as, m, e);
            (void)total_launched;
            return core;
        });
    auto stats = gpu.run(10'000'000);
    // Every thread executed 10 warp-instructions' worth of work:
    // 100 blocks x 2 warps x (8 alu + branch + exit).
    EXPECT_EQ(stats.instructions, 100u * 2u * 10u);
}

TEST(GpuTop, RunStatsAggregatesAcrossCores)
{
    ComputeWorkload wl(6);
    GpuTop gpu(
        3, MemorySystemConfig{}, wl,
        [](int id, const LaunchParams &l, AddressSpace &as,
           MemorySystem &m,
           EventQueue &e) -> std::unique_ptr<ShaderCore> {
            CoreConfig cfg;
            cfg.mmu.enabled = false;
            return std::make_unique<SimtCore>(id, cfg, l, as, m, e);
        });
    auto stats = gpu.run(1'000'000);
    EXPECT_EQ(stats.instructions, 6u * 2u * 10u);
    EXPECT_EQ(stats.memInstructions, 0u);
    EXPECT_EQ(stats.tlbAccesses, 0u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.ipc(), 0.0);
}

TEST(GpuTop, StatsRegistryHasPerCoreEntries)
{
    ComputeWorkload wl(2);
    GpuTop gpu(
        2, MemorySystemConfig{}, wl,
        [](int id, const LaunchParams &l, AddressSpace &as,
           MemorySystem &m,
           EventQueue &e) -> std::unique_ptr<ShaderCore> {
            CoreConfig cfg;
            cfg.mmu.enabled = false;
            return std::make_unique<SimtCore>(id, cfg, l, as, m, e);
        });
    gpu.run(1'000'000);
    EXPECT_NE(gpu.stats().findCounter("core0.instrs"), nullptr);
    EXPECT_NE(gpu.stats().findCounter("core1.instrs"), nullptr);
    EXPECT_NE(gpu.stats().findCounter("mem.l2.accesses"), nullptr);
    EXPECT_EQ(gpu.stats().findCounter("core2.instrs"), nullptr);
}

TEST(GpuTop, DeadlockGuardFires)
{
    // A kernel that can never finish within the budget trips the
    // guard (fatal exits with code 1).
    ComputeWorkload wl(200);
    auto run_tiny_budget = [&]() {
        GpuTop gpu(
            1, MemorySystemConfig{}, wl,
            [](int id, const LaunchParams &l, AddressSpace &as,
               MemorySystem &m,
               EventQueue &e) -> std::unique_ptr<ShaderCore> {
                CoreConfig cfg;
                cfg.mmu.enabled = false;
                return std::make_unique<SimtCore>(id, cfg, l, as, m,
                                                  e);
            });
        gpu.run(/*max_cycles=*/2);
    };
    EXPECT_EXIT(run_tiny_budget(), ::testing::ExitedWithCode(1),
                "exceeded");
}

TEST(GpuTop, UndispatchableBlockIsFatalAtOnce)
{
    // Every core asleep with no wake cycle, no event pending and a
    // block left: nothing can ever change, so the loop names the
    // block instead of ticking to the budget.
    ComputeWorkload wl(3);
    EXPECT_EXIT(runCompute<RefusingCore>(wl, 2, CoreConfig{},
                                         10'000'000),
                ::testing::ExitedWithCode(1),
                "deadlock at cycle 0: every core sleeps with nothing "
                "pending \\(next undispatched block 0 of 3\\)");
}

TEST(GpuTop, WorkThatCanNeverEndIsFatalAtOnce)
{
    ComputeWorkload wl(2);
    EXPECT_EXIT(runCompute<NeverIdleCore>(wl, 1, CoreConfig{},
                                          10'000'000),
                ::testing::ExitedWithCode(1),
                "deadlock at cycle [0-9]+: every core sleeps with "
                "nothing pending \\(next undispatched block 2 of 2\\)");
}

namespace {

/** @p text as a gtest regex that matches it literally. */
std::string
literal(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (std::strchr("\\^$.|?*+()[]{}", c) != nullptr)
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

TEST(GpuTop, MalformedConfigsAreFieldNamedFatals)
{
    // One row per config rule: SystemConfig::validate() names the
    // field without building anything, and a run of the config is a
    // fatal (exit 1) that lists the same line before any component
    // is built.
    struct Case
    {
        std::function<void(SystemConfig &)> edit;
        const char *violation;
    };
    const Case cases[] = {
        {[](SystemConfig &c) { c.numCores = 0; },
         "numCores (0) must be at least 1"},
        {[](SystemConfig &c) { c.physFrames = 0; },
         "physFrames (0) must be at least 1"},
        {[](SystemConfig &c) { c.mem.numPartitions = 0; },
         "mem.numPartitions (0) must be at least 1"},
        {[](SystemConfig &c) { c.mem.l2BytesPerPartition = 64; },
         "mem.l2BytesPerPartition (64) must hold at least one 128-byte "
         "line"},
        {[](SystemConfig &c) { c.mem.l2Ways = 3; },
         "mem.l2BytesPerPartition (131072, 1024 lines) does not divide "
         "into mem.l2Ways (3)"},
        {[](SystemConfig &c) { c.core.issueWidth = 0; },
         "core.issueWidth (0) must be at least 1"},
        {[](SystemConfig &c) {
             c = presets::tbc(c);
             c.core.issueWidth = 0;
         },
         "core.issueWidth (0) must be at least 1"},
        {[](SystemConfig &c) { c.core.l1.bytes = kLineSize - 1; },
         "core.l1.bytes (127) must hold at least one 128-byte line"},
        {[](SystemConfig &c) { c.core.l1.ways = 3; },
         "core.l1.bytes (32768, 256 lines) does not divide into "
         "core.l1.ways (3)"},
        {[](SystemConfig &c) { c.core.l1.numMshrs = 0; },
         "core.l1.numMshrs (0) must be at least 1"},
        {[](SystemConfig &c) { c.core.mmu.tlb.entries = 0; },
         "core.mmu.tlb.entries (0) must be at least 1"},
        {[](SystemConfig &c) { c.core.mmu.tlb.ways = 3; },
         "core.mmu.tlb.entries (128) does not divide into "
         "core.mmu.tlb.ways (3)"},
        {[](SystemConfig &c) { c.core.mmu.tlb.ports = 0; },
         "core.mmu.tlb.ports (0) must be at least 1"},
        {[](SystemConfig &c) { c.core.mmu.tlb.historyLength = 5; },
         "core.mmu.tlb.historyLength (5) exceeds the 4-entry warp "
         "history"},
        {[](SystemConfig &c) { c.core.mmu.ptw.numWalkers = 0; },
         "core.mmu.ptw.numWalkers (0) must be at least 1"},
        {[](SystemConfig &c) {
             c.core.mmu.ptw.pwcLines = 16;
             c.core.mmu.ptw.pwcWays = 3;
         },
         "core.mmu.ptw.pwcLines (16) does not divide into "
         "core.mmu.ptw.pwcWays (3)"},
        {[](SystemConfig &c) { c.core.mmu.mshrs = 16; },
         "core.mmu.mshrs (16) is below the warp width (32); one warp's "
         "misses must start together"},
        {[](SystemConfig &c) {
             c = presets::tbc(c);
             c.core.mmu.mshrs = 0;
         },
         "core.mmu.mshrs (0) is below the warp width (32); one warp's "
         "misses must start together"},
        {[](SystemConfig &c) { c.core.numWarpSlots = 65; },
         "core.numWarpSlots (65) must fit the 64-bit warp-set masks"},
        {[](SystemConfig &c) {
             c = presets::tbc(c);
             c.core.numWarpSlots = 65;
         },
         "core.numWarpSlots (65) must fit the 64-bit warp-set masks"},
        {[](SystemConfig &c) {
             c = presets::tbc(c);
             c.sched = SchedulerKind::Ccws;
         },
         "coreKind (Tbc) issues in loose round robin order; sched must "
         "be LooseRoundRobin"},
        {[](SystemConfig &c) { c = presets::tlbAwareTbc(c, 0); },
         "tbc.cpm.counterBits (0) must be 1-8"},
        {[](SystemConfig &c) { c = presets::tlbAwareTbc(c, 9); },
         "tbc.cpm.counterBits (9) must be 1-8"},
        {[](SystemConfig &c) {
             c = presets::ccws(c);
             c.ccws.vtaEntriesPerWarp = 0;
         },
         "ccws.vtaEntriesPerWarp (0) must be at least 1"},
        {[](SystemConfig &c) {
             c = presets::taCcws(c, 4);
             c.ccws.vtaEntriesPerWarp = 12;
         },
         "ccws.vtaEntriesPerWarp (12) does not divide into "
         "ccws.vtaWays (8)"},
        {[](SystemConfig &c) { c = presets::tcws(c, 0, {}); },
         "tcws.vtaEntriesPerWarp (0) must be at least 1"},
        {[](SystemConfig &c) { c = presets::tcws(c, 12, {}); },
         "tcws.vtaEntriesPerWarp (12) does not divide into "
         "tcws.vtaWays (8)"},
        {[](SystemConfig &c) {
             c = presets::iommu();
             c.core.mmu.enabled = true;
         },
         "iommu (true) requires per-core MMUs disabled "
         "(core.mmu.enabled false)"},
        {[](SystemConfig &c) { c = presets::tbc(presets::iommu()); },
         "coreKind (Tbc) has no IOMMU path; IOMMU mode runs SIMT cores "
         "only"},
        {[](SystemConfig &c) {
             c = presets::iommu();
             c.iommuCfg.tlb.ways = 3;
         },
         "iommuCfg.tlb.entries (1024) does not divide into "
         "iommuCfg.tlb.ways (3)"},
        {[](SystemConfig &c) {
             c = presets::iommu();
             c.iommuCfg.ptw.numWalkers = 0;
         },
         "iommuCfg.ptw.numWalkers (0) must be at least 1"},
        {[](SystemConfig &c) {
             c = presets::withSharedL2Tlb(presets::noTlb());
         },
         "l2tlb.enabled (true) sits behind per-core MMUs, and "
         "core.mmu.enabled is false"},
        {[](SystemConfig &c) { c = presets::withSharedL2Tlb(c, 0); },
         "l2tlb.entries (0) must be at least 1"},
        {[](SystemConfig &c) {
             c = presets::withSharedL2Tlb(c);
             c.l2tlb.ways = 3;
         },
         "l2tlb.entries (4096) does not divide into l2tlb.ways (3)"},
        {[](SystemConfig &c) { c = presets::withSharedL2Tlb(c, 4096, 0); },
         "l2tlb.ports (0) must be at least 1"},
        {[](SystemConfig &c) {
             c = presets::withSharedL2Tlb(c);
             c.l2tlb.mshrs = 0;
         },
         "l2tlb.mshrs (0) must be at least 1"},
        {[](SystemConfig &c) {
             c = presets::withSharedL2Tlb(c);
             c.l2tlb.lookupInterval = 0;
         },
         "l2tlb.lookupInterval (0) must be at least 1"},
    };
    WorkloadParams p;
    p.scale = 0.03;
    for (const Case &tc : cases) {
        SystemConfig cfg = presets::augmentedTlb();
        cfg.numCores = 4;
        tc.edit(cfg);
        EXPECT_EQ(cfg.validate(), std::vector<std::string>{tc.violation});
        EXPECT_EXIT(runConfig(BenchmarkId::Bfs, cfg, p),
                    ::testing::ExitedWithCode(1),
                    literal("config '" + cfg.name + "' is invalid:\n  " +
                            tc.violation));
    }

    // Every violation is listed, not just the first.
    SystemConfig two = presets::augmentedTlb();
    two.numCores = 0;
    two.core.mmu.tlb.ports = 0;
    EXPECT_EQ(two.validate(),
              (std::vector<std::string>{
                  "numCores (0) must be at least 1",
                  "core.mmu.tlb.ports (0) must be at least 1"}));
    EXPECT_EXIT(runConfig(BenchmarkId::Bfs, two, p),
                ::testing::ExitedWithCode(1),
                "numCores \\(0\\).*\n  core\\.mmu\\.tlb\\.ports \\(0\\)");

    // Running out of frames depends on the workload, so validate()
    // passes it and the run names the field when it happens.
    SystemConfig small = presets::augmentedTlb();
    small.numCores = 4;
    small.physFrames = 16;
    EXPECT_TRUE(small.validate().empty());
    EXPECT_EXIT(runConfig(BenchmarkId::Bfs, small, p),
                ::testing::ExitedWithCode(1),
                "out of physical memory: physFrames \\(16\\)");
}

TEST(GpuTop, EveryShippedConfigPassesValidate)
{
    // The presets with the parameter values the fig, ext and example
    // binaries pass them, and every point of the named DSE grids.
    const SystemConfig aug = presets::augmentedTlb();
    std::vector<SystemConfig> cfgs = {
        presets::noTlb(),           presets::naiveTlb(3),
        presets::naiveTlb(4),       presets::tlbHitUnderMiss(),
        presets::tlbCacheOverlap(), aug,
        presets::idealTlb(),        presets::iommu(),
        presets::withLargePages(presets::naiveTlb(4)),
        presets::withLargePages(aug),
        defaultMultiTenant(0.05).system,
    };
    for (unsigned walkers : {1u, 2u, 4u, 8u})
        cfgs.push_back(presets::naiveTlbMultiPtw(walkers));
    for (std::size_t size : {64u, 128u, 256u, 512u}) {
        for (unsigned ports : {3u, 4u, 32u})
            cfgs.push_back(presets::naiveTlbSized(size, ports));
        cfgs.push_back(presets::naiveTlbSized(size, 32, true));
    }
    for (const SystemConfig &base :
         {presets::noTlb(), presets::naiveTlb(3), presets::naiveTlb(4),
          aug}) {
        cfgs.push_back(presets::ccws(base));
        cfgs.push_back(presets::tbc(base));
    }
    for (unsigned w : {2u, 4u, 8u})
        cfgs.push_back(presets::taCcws(aug, w));
    for (unsigned epw : {2u, 4u, 8u, 16u})
        cfgs.push_back(presets::tcws(aug, epw, {0, 0, 0, 0}));
    for (const std::array<std::uint64_t, 4> &w :
         {std::array<std::uint64_t, 4>{1, 2, 3, 4},
          std::array<std::uint64_t, 4>{1, 2, 4, 8},
          std::array<std::uint64_t, 4>{1, 3, 6, 9}})
        cfgs.push_back(presets::tcws(aug, 8, w));
    for (unsigned bits : {1u, 2u, 3u})
        cfgs.push_back(presets::tlbAwareTbc(aug, bits));
    for (unsigned ports : {1u, 4u})
        for (std::size_t entries : {512u, 2048u, 8192u})
            cfgs.push_back(presets::withSharedL2Tlb(aug, entries, ports));
    // ablation_mmu's variants of the augmented design.
    SystemConfig ablated = aug;
    for (std::size_t pwc : {0u, 64u}) {
        ablated.core.mmu.ptw.pwcLines = pwc;
        cfgs.push_back(ablated);
    }
    ablated = aug;
    ablated.mem.prioritizeWalks = false;
    ablated.core.mmu.ptw.portInterval = 8;
    cfgs.push_back(ablated);

    for (const SystemConfig &cfg : cfgs)
        EXPECT_EQ(cfg.validate(), std::vector<std::string>{}) << cfg.name;

    std::size_t points = 0;
    for (const char *name : {"tiny", "smoke", "default"}) {
        DseGrid grid;
        ASSERT_TRUE(namedGrid(name, grid));
        for (const DseKnobs &k : expandGrid(grid)) {
            const SystemConfig cfg = makeDseConfig(k, DseOptions{}.numCores);
            EXPECT_EQ(cfg.validate(), std::vector<std::string>{})
                << cfg.name;
            ++points;
        }
    }
    EXPECT_EQ(points, 8u + 64u + 768u);
}

TEST(GpuTop, BlocksPlacedOnAnIdleMachineStillRun)
{
    // One core that fits exactly one block, compute only, so no event
    // is ever pending: each next block is placed in the cycle its
    // predecessor's last warp retires, while every core is idle.
    ComputeWorkload wl(3);
    CoreConfig one_block;
    one_block.numWarpSlots = 2;
    const RunStats stats =
        runCompute<SimtCore>(wl, 1, one_block, 1'000'000);
    EXPECT_EQ(stats.instructions, 3u * 2u * 10u);
}

TEST(GpuTop, WakingOnOwnStateMatchesWakingOnAnyEvent)
{
    // A sleeping core is woken only by its own wakeHint() (lowered by
    // the callbacks that change its state) or a block launch. Waking
    // it in every cycle an event fires as well must change nothing
    // but the number of ticks, on every workload and design.
    const std::pair<const char *, SystemConfig> configs[] = {
        {"naive", presets::naiveTlb()},
        {"augmented", presets::augmentedTlb()},
        {"iommu", presets::iommu()},
        {"shared-l2", presets::withSharedL2Tlb(presets::augmentedTlb())},
        {"tbc", presets::tbc(presets::augmentedTlb())},
        {"tlb-aware-tbc", presets::tlbAwareTbc(presets::augmentedTlb(), 3)},
        {"ccws", presets::ccws(presets::augmentedTlb())},
    };
    for (auto [name, cfg] : configs) {
        cfg.numCores = 4;
        cfg.checkInvariants = true;
        // CCWS cores sleep only once empty.
        const bool sleeps = cfg.sched != SchedulerKind::Ccws;
        for (BenchmarkId id : allBenchmarks()) {
            const std::string what =
                std::string(name) + "/" + benchmarkName(id);
            const WakeRun own = runWakeRule(id, cfg, false);
            const WakeRun any = runWakeRule(id, cfg, true);
            EXPECT_TRUE(own.stats == any.stats) << what;
            EXPECT_EQ(own.stats.cyclesFastForwarded,
                      any.stats.cyclesFastForwarded)
                << what;
            EXPECT_EQ(own.json, any.json) << what;
            if (sleeps)
                EXPECT_LT(own.tickCalls, any.tickCalls) << what;
            else
                EXPECT_LE(own.tickCalls, any.tickCalls) << what;
        }
    }
}

TEST(GpuTop, SeventyCoresWakeOnOwnStateAsOnAnyEvent)
{
    // 70 cores span two words of the loop's core bitsets; cores past
    // the first word must sleep, wake and take blocks like the rest.
    // Scale 0.3 gives kmeans 72 blocks, so every core gets one.
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 70;
    cfg.checkInvariants = true;
    const WakeRun own =
        runWakeRule(BenchmarkId::Kmeans, cfg, false, 0.3);
    const WakeRun any = runWakeRule(BenchmarkId::Kmeans, cfg, true, 0.3);
    EXPECT_TRUE(own.stats == any.stats);
    EXPECT_EQ(own.stats.cyclesFastForwarded,
              any.stats.cyclesFastForwarded);
    EXPECT_EQ(own.json, any.json);
    EXPECT_LT(own.tickCalls, any.tickCalls);
    EXPECT_GT(own.lastCoreInstrs, 0u);
    EXPECT_EQ(own.lastCoreInstrs, any.lastCoreInstrs);
}

TEST(GpuTop, EventLoweringASleepersHintTicksItThatCycle)
{
    // One block on two cores: core 1 gets none, so its first tick is
    // quiescent and it sleeps with no wake cycle. An event at cycle 5
    // lowers its hint to 5, one at 9 to 12; it is ticked in exactly
    // those cycles.
    ComputeWorkload wl(1);
    std::vector<ProbeCore *> probes;
    auto gpu = probedGpu(wl, 2, CoreConfig{}, probes);
    ProbeCore &sleeper = *probes.at(1);
    EventQueue &eq = gpu->eventQueue();
    eq.schedule(5, [&] { sleeper.wakeAt(eq.now()); });
    eq.schedule(9, [&] { sleeper.wakeAt(12); });
    const RunStats stats = gpu->run(1'000'000);
    ASSERT_GT(stats.cycles, 12u);
    EXPECT_EQ(sleeper.ticks, (std::vector<Cycle>{0, 5, 12}));
}

TEST(GpuTop, StalePostDoesNotTickASleeperBeforeItsHint)
{
    // A post says only "read me". One left on the queue before the
    // loop starts, as an earlier multi-tenant slice may leave, and
    // one from an event at 5 that lowers no hint change nothing: core
    // 1 sleeps from its empty tick at 0 until the hint of 12 set by
    // an event at 9.
    ComputeWorkload wl(1);
    std::vector<ProbeCore *> probes;
    auto gpu = probedGpu(wl, 2, CoreConfig{}, probes);
    ProbeCore &sleeper = *probes.at(1);
    EventQueue &eq = gpu->eventQueue();
    eq.postWake(1);
    eq.schedule(5, [&] { eq.postWake(1); });
    eq.schedule(9, [&] { sleeper.wakeAt(12); });
    const RunStats stats = gpu->run(1'000'000);
    ASSERT_GT(stats.cycles, 12u);
    EXPECT_EQ(sleeper.ticks, (std::vector<Cycle>{0, 12}));
}

TEST(GpuTop, RefusingCoreIsNotPolledAgainUntilItTicks)
{
    // One block fits a 2-slot core, so with 40 blocks on 3 cores
    // every core refuses many times while blocks wait, and the long
    // ALU latency puts a full core to sleep between issues. An empty
    // event in every early cycle keeps the loop from jumping over
    // those sleeps. Only a core's own tick frees a slot: a refusal
    // holds until that tick.
    ComputeWorkload wl(40);
    CoreConfig one_block;
    one_block.numWarpSlots = 2;
    one_block.aluLatency = 20;
    std::vector<ProbeCore *> probes;
    auto gpu = probedGpu(wl, 3, one_block, probes);
    for (Cycle c = 1; c < 2000; ++c)
        gpu->eventQueue().schedule(c, [] {});
    const RunStats stats = gpu->run(1'000'000);
    EXPECT_EQ(stats.instructions, 40u * 2u * 10u);
    for (const ProbeCore *core : probes) {
        EXPECT_GT(core->refusals, 0u);
        EXPECT_EQ(core->pollsAfterRefusal, 0u);
    }
}

namespace {

/** The ticks and stats of @p wl on one ProbeCore, run after
 *  @p script has set the core up and scheduled its events. */
struct ProbedRun
{
    RunStats stats;
    std::vector<Cycle> ticks;
    unsigned hintReads = 0;
};

ProbedRun
runProbed(Workload &wl, const CoreConfig &cfg,
          const std::function<void(EventQueue &, ProbeCore &)> &script)
{
    std::vector<ProbeCore *> probes;
    auto gpu = probedGpu(wl, 1, cfg, probes);
    ProbeCore &core = *probes.at(0);
    script(gpu->eventQueue(), core);
    ProbedRun out;
    out.stats = gpu->run(1'000'000);
    out.ticks = core.ticks;
    out.hintReads = core.hintReads;
    return out;
}

} // namespace

TEST(GpuTop, AllAsleepJumpLandsOnTheEarlierOfEventAndWake)
{
    // One core, closed to blocks until cycle 260, sleeps with no
    // wake of its own: the loop jumps to min(next event, alarm). At
    // 70 an event comes before the cycle-80 wake; at 80 the two
    // coincide; at 120 an event wakes the core at once; at 230 the
    // wake comes before the cycle-260 event, which opens the core.
    ComputeWorkload wl(1);
    const ProbedRun solo =
        runProbed(wl, CoreConfig{}, [](EventQueue &, ProbeCore &) {});
    const ProbedRun run = runProbed(
        wl, CoreConfig{}, [](EventQueue &eq, ProbeCore &core) {
            core.open = false;
            eq.schedule(50, [&core] { core.wakeAt(80); });
            eq.schedule(70, [] {});
            eq.schedule(80, [] {});
            eq.schedule(120, [&] { core.wakeAt(eq.now()); });
            eq.schedule(200, [&core] { core.wakeAt(230); });
            eq.schedule(260, [&] {
                core.open = true;
                core.wakeAt(eq.now());
            });
        });
    // The block is placed after the cycle-260 tick and first ticked
    // at 261: from there the run is the solo run shifted by 261.
    std::vector<Cycle> want = {0, 80, 120, 230, 260};
    for (const Cycle c : solo.ticks)
        want.push_back(261 + c);
    EXPECT_EQ(run.ticks, want);
    EXPECT_EQ(run.stats.cycles, 261 + solo.stats.cycles);
    // Cycles 0-260 run only at 0, 50, 70, 80, 120, 200, 230 and 260.
    EXPECT_EQ(run.stats.cyclesFastForwarded,
              261 - 8 + solo.stats.cyclesFastForwarded);
    EXPECT_EQ(run.stats.instructions, solo.stats.instructions);
}

TEST(GpuTop, BlockLaunchOntoASleeperDropsItsAlarm)
{
    // At 50 the core ticks empty and falls asleep with a wake at 400,
    // then takes a block in the same cycle's dispatch. Its cached
    // hint, and with it the alarm, must go: once the block is done,
    // the loop jumps straight to the cycle-1000 event. A stale alarm
    // would stop the jump at 400. aluLatency 1 keeps the core busy
    // every cycle of the block, so no other wake recomputes the alarm
    // first.
    ComputeWorkload wl(1);
    CoreConfig busy;
    busy.aluLatency = 1;
    const ProbedRun run =
        runProbed(wl, busy, [](EventQueue &eq, ProbeCore &core) {
            core.open = false;
            eq.schedule(50, [&] {
                core.open = true;
                core.wakeAt(eq.now());
                core.holdHint(400);
            });
            eq.schedule(1000, [] {});
        });
    ASSERT_GE(run.ticks.size(), 4u);
    const Cycle last = run.ticks.back();
    ASSERT_LT(last, 400u);
    std::vector<Cycle> want = {0};
    for (Cycle c = 50; c <= last; ++c)
        want.push_back(c);
    EXPECT_EQ(run.ticks, want);
    EXPECT_EQ(run.stats.cycles, 1000u);
    // Cycles 1-49 and last+1 - 999 are skipped.
    EXPECT_EQ(run.stats.cyclesFastForwarded, 49 + (999 - last));
}

TEST(GpuTop, PostFromAnAwakeCoreNeitherRereadsNorDoubleTicksIt)
{
    // aluLatency 1 keeps the only core busy in every cycle of its
    // block. A post in each of those cycles finds it awake: the loop
    // reads no extra hint and ticks it once a cycle, as without the
    // posts.
    ComputeWorkload wl(1);
    CoreConfig busy;
    busy.aluLatency = 1;
    const ProbedRun plain =
        runProbed(wl, busy, [](EventQueue &, ProbeCore &) {});
    ASSERT_GE(plain.ticks.size(), 4u);
    const Cycle last = plain.ticks.back();
    std::vector<Cycle> every;
    for (Cycle c = 0; c <= last; ++c)
        every.push_back(c);
    ASSERT_EQ(plain.ticks, every);
    const ProbedRun posted =
        runProbed(wl, busy, [last](EventQueue &eq, ProbeCore &) {
            for (Cycle c = 1; c < last; ++c)
                eq.schedule(c, [&eq] { eq.postWake(0); });
        });
    EXPECT_EQ(posted.ticks, plain.ticks);
    EXPECT_EQ(posted.hintReads, plain.hintReads);
    EXPECT_EQ(posted.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(posted.stats.instructions, plain.stats.instructions);
}
