#include "rig.hh"

#include <stdexcept>

#include "core/presets.hh"
#include "gpu/simt_core.hh"
#include "sched/warp_scheduler.hh"
#include "telemetry/span.hh"
#include "trace/memtrace.hh"

namespace perfbench {

using namespace gpummu;

namespace {

/**
 * ShaderCore decorator: forwards every call to the wrapped core and
 * times tick() and chargeSkipped(), the two per-cycle entry points
 * the GPU's cycle loop drives. Observation only — the wrapped core
 * sees exactly the calls it would see undecorated.
 */
class TimedCore final : public ShaderCore
{
  public:
    TimedCore(std::unique_ptr<ShaderCore> inner, TickLedger &ledger)
        : inner_(std::move(inner)), ledger_(ledger)
    {
    }

    void
    tick(Cycle now) override
    {
        const std::uint64_t t0 = hostTicks();
        inner_->tick(now);
        ledger_.tickTicks += hostTicks() - t0;
        ++ledger_.tickCalls;
    }

    bool lastTickQuiescent() const override
    {
        return inner_->lastTickQuiescent();
    }
    Cycle wakeHint() const override { return inner_->wakeHint(); }

    void
    chargeSkipped(Cycle now, Cycle n) override
    {
        const std::uint64_t t0 = hostTicks();
        inner_->chargeSkipped(now, n);
        ledger_.chargeTicks += hostTicks() - t0;
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
    void setTraceSink(TraceSink *sink) override
    {
        inner_->setTraceSink(sink);
    }
    void setHeatProfiler(HeatProfiler *heat) override
    {
        inner_->setHeatProfiler(heat);
    }
    void setSpanTracker(SpanTracker *spans) override
    {
        inner_->setSpanTracker(spans);
    }
    bool setMemTraceWriter(MemTraceWriter *writer) override
    {
        return inner_->setMemTraceWriter(writer);
    }
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

  private:
    std::unique_ptr<ShaderCore> inner_;
    TickLedger &ledger_;
};

/** The schedulers the benchmark's presets use (SimtCore only). */
std::unique_ptr<WarpScheduler>
makeScheduler(const SystemConfig &cfg)
{
    switch (cfg.sched) {
      case SchedulerKind::LooseRoundRobin:
        return std::make_unique<LooseRoundRobin>(
            cfg.core.numWarpSlots);
      case SchedulerKind::GreedyThenOldest:
        return std::make_unique<GreedyThenOldest>();
      default:
        throw std::invalid_argument(
            "perfbench: scheduler of preset '" + cfg.name +
            "' is not supported by the benchmark rig");
    }
}

} // namespace

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    // Four translation regimes, each the dominant cost of one set of
    // layers; the scales keep one simulation at 0.5-1 s of host time.
    static const std::vector<WorkloadSpec> specs = {
        // Worst translation load: the Mmu miss map, the scheduled
        // walkers and the event queue do the work.
        {"hashprobe_translate", BenchmarkId::Hashprobe, "augmentedTlb()",
         presets::augmentedTlb(), 0.25},
        // Regular control: core tick, coalescer and L1 do the work and
        // the MMU is nearly idle.
        {"pathfinder_regular", BenchmarkId::Pathfinder, "augmentedTlb()",
         presets::augmentedTlb(), 0.4},
        // The shared L2 TLB and its MSHR merges absorb the walks;
        // stores take the write-through path.
        {"memcached_l2tlb", BenchmarkId::Memcached,
         "withSharedL2Tlb(augmentedTlb())",
         presets::withSharedL2Tlb(presets::augmentedTlb()), 0.4},
        // No per-core TLB: the Iommu miss map and the whole-GPU
        // fast-forward dominate.
        {"bfs_iommu", BenchmarkId::Bfs, "iommu()", presets::iommu(), 0.3},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

Rig
buildRig(const WorkloadSpec &spec, const WorkloadParams &params,
         const Observers &obs)
{
    const SystemConfig &cfg = spec.cfg;
    if (cfg.coreKind != CoreKind::Simt)
        throw std::invalid_argument("perfbench: SIMT cores only");

    Rig rig;
    rig.workload = makeWorkload(spec.bench, params);

    // The same GPU-wide holder wiring as runWorkloadFull(): the shared
    // L2 TLB or IOMMU is created with the first core and attached to
    // every core.
    if (cfg.l2tlb.enabled)
        rig.l2tlb = std::make_shared<std::unique_ptr<L2Tlb>>();
    if (cfg.iommu)
        rig.iommu = std::make_shared<std::unique_ptr<Iommu>>();

    GpuTop::CoreFactory factory =
        [cfg, l2 = rig.l2tlb, io = rig.iommu, ticks = obs.ticks](
            int core_id, const LaunchParams &launch, AddressSpace &as,
            MemorySystem &mem,
            EventQueue &eq) -> std::unique_ptr<ShaderCore> {
        auto core = std::make_unique<SimtCore>(core_id, cfg.core,
                                               launch, as, mem, eq);
        core->setScheduler(makeScheduler(cfg));
        if (io) {
            if (!*io)
                *io = std::make_unique<Iommu>(cfg.iommuCfg, as, mem, eq);
            core->setIommu(io->get());
        }
        if (l2) {
            if (!*l2) {
                *l2 = std::make_unique<L2Tlb>(
                    cfg.l2tlb, as.pageTable(), eq,
                    as.usesLargePages() ? kPageShift2M : kPageShift4K);
            }
            core->mmu().setL2Tlb(l2->get());
        }
        if (ticks == nullptr)
            return core;
        return std::make_unique<TimedCore>(std::move(core), *ticks);
    };

    rig.gpu = std::make_unique<GpuTop>(cfg.numCores, cfg.mem,
                                       *rig.workload, factory,
                                       cfg.largePages, cfg.physFrames);
    if (L2Tlb *l2 = rig.sharedL2Tlb())
        l2->regStats(rig.gpu->stats(), "l2tlb");
    if (Iommu *io = rig.sharedIommu())
        io->regStats(rig.gpu->stats(), "iommu");

    if (obs.spans != nullptr) {
        rig.gpu->setSpanTracker(obs.spans);
        // Shared structures sit outside the cores; tid -1 marks them.
        if (L2Tlb *l2 = rig.sharedL2Tlb())
            l2->setSpanTracker(obs.spans, -1);
        if (Iommu *io = rig.sharedIommu())
            io->setSpanTracker(obs.spans, -1);
    }
    if (obs.memtrace != nullptr) {
        obs.memtrace->setConfigName(cfg.name);
        if (!rig.gpu->setMemTrace(obs.memtrace)) {
            throw std::runtime_error("perfbench: memtrace capture failed: " +
                                     obs.memtrace->error());
        }
    }
    return rig;
}

RunStats
runRig(Rig &rig, const SystemConfig &cfg, const Observers &obs)
{
    const RunStats stats = rig.gpu->run(cfg.maxCycles);
    if (obs.memtrace != nullptr && !obs.memtrace->finish(stats.cycles)) {
        throw std::runtime_error("perfbench: memtrace capture failed: " +
                                 obs.memtrace->error());
    }
    if (L2Tlb *l2 = rig.sharedL2Tlb())
        l2->checkEndOfKernel();
    if (Iommu *io = rig.sharedIommu())
        io->checkEndOfKernel();
    return stats;
}

} // namespace perfbench
