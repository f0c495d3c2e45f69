#include "core/shared_translation.hh"

#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace gpummu {

namespace {

std::unique_ptr<WarpScheduler>
makeScheduler(const SystemConfig &cfg)
{
    switch (cfg.sched) {
      case SchedulerKind::LooseRoundRobin:
        return std::make_unique<LooseRoundRobin>(
            cfg.core.numWarpSlots);
      case SchedulerKind::GreedyThenOldest:
        return std::make_unique<GreedyThenOldest>();
      case SchedulerKind::Ccws:
      case SchedulerKind::TaCcws:
        return std::make_unique<Ccws>(cfg.ccws, cfg.core.numWarpSlots);
      case SchedulerKind::Tcws:
        return std::make_unique<Tcws>(cfg.tcws, cfg.core.numWarpSlots);
    }
    GPUMMU_PANIC("unknown scheduler kind");
}

} // namespace

SharedTranslation::SharedTranslation(const SystemConfig &cfg) : cfg_(cfg)
{
    std::string violations;
    for (const std::string &v : cfg_.validate())
        violations.append("\n  ").append(v);
    if (!violations.empty())
        GPUMMU_FATAL("config '", cfg_.name, "' is invalid:", violations);
    if (cfg_.checkInvariants) {
        cfg_.core.mmu.checkInvariants = true;
        cfg_.iommuCfg.checkInvariants = true;
        cfg_.l2tlb.checkInvariants = true;
    }
}

void
SharedTranslation::build(AddressSpace &as, MemorySystem &mem,
                         EventQueue &eq)
{
    if (cfg_.iommu && !iommu_)
        iommu_ = std::make_unique<Iommu>(cfg_.iommuCfg, as, mem, eq);
    if (cfg_.l2tlb.enabled && !l2tlb_) {
        l2tlb_ = std::make_unique<L2Tlb>(
            cfg_.l2tlb, as.pageTable(), eq,
            as.usesLargePages() ? kPageShift2M : kPageShift4K);
    }
}

GpuTop::CoreFactory
SharedTranslation::coreFactory()
{
    return [this](int core_id, const LaunchParams &launch,
                  AddressSpace &as, MemorySystem &mem,
                  EventQueue &eq) -> std::unique_ptr<ShaderCore> {
        build(as, mem, eq);
        std::unique_ptr<ShaderCore> core;
        if (cfg_.coreKind == CoreKind::Tbc) {
            core = std::make_unique<TbcCore>(core_id, cfg_.core,
                                             cfg_.tbc, launch, as, mem,
                                             eq);
        } else {
            auto simt = std::make_unique<SimtCore>(core_id, cfg_.core,
                                                   launch, as, mem, eq);
            simt->setScheduler(makeScheduler(cfg_));
            if (iommu_)
                simt->setIommu(iommu_.get());
            core = std::move(simt);
        }
        if (l2tlb_)
            core->mmu().setL2Tlb(l2tlb_.get());
        return core;
    };
}

void
SharedTranslation::regStats(StatRegistry &reg)
{
    if (l2tlb_)
        l2tlb_->regStats(reg, "l2tlb");
    if (iommu_)
        iommu_->regStats(reg, "iommu");
}

void
SharedTranslation::arm(const RunObservers &obs, StatRegistry &reg)
{
    if (obs.trace != nullptr)
        obs.trace->regStats(reg, "trace");
    if (obs.spans != nullptr && obs.trace != nullptr)
        obs.spans->setTraceSink(obs.trace);
    if (l2tlb_) {
        l2tlb_->setTraceSink(obs.trace, -1);
        l2tlb_->setSpanTracker(obs.spans, -1);
    }
    if (iommu_) {
        iommu_->setTraceSink(obs.trace, -1);
        iommu_->setHeatProfiler(
            obs.telemetry != nullptr ? &obs.telemetry->heat() : nullptr,
            -1);
        iommu_->setSpanTracker(obs.spans, -1);
    }
}

void
SharedTranslation::checkEndOfKernel() const
{
    if (l2tlb_)
        l2tlb_->checkEndOfKernel();
    if (iommu_)
        iommu_->checkEndOfKernel();
}

} // namespace gpummu
