/**
 * @file
 * The one wiring every run entry point builds its GPU with: the core
 * factory, plus the GPU-wide translation unit the config asks for.
 */

#ifndef CORE_SHARED_TRANSLATION_HH
#define CORE_SHARED_TRANSLATION_HH

#include <memory>

#include "core/run_observers.hh"
#include "core/system_config.hh"
#include "gpu/gpu_top.hh"

namespace gpummu {

/**
 * The GPU-wide translation unit of one run: the shared L2 TLB behind
 * the per-core MMUs, the IOMMU that replaces them (Section 2.2), or
 * neither. It sits outside every core, out of reach of GpuTop's
 * per-core sweeps, so its stats, observers (at tid -1, the GPU-wide
 * instance) and drain check go through here.
 */
class SharedTranslation
{
  public:
    /** Fans cfg.checkInvariants out to every translation unit. Fatal,
     *  naming the config, for what no core can run: an L2 TLB without
     *  per-core MMUs, an IOMMU with them, TBC cores on an IOMMU or
     *  under a scheduler other than loose round robin. */
    explicit SharedTranslation(const SystemConfig &cfg);

    SharedTranslation(const SharedTranslation &) = delete;
    SharedTranslation &operator=(const SharedTranslation &) = delete;

    /** One core per call: a TbcCore, or a SimtCore with the config's
     *  scheduler, attached to the unit (built with the first core, on
     *  its address space). The factory refers to this object. */
    GpuTop::CoreFactory coreFactory();

    /** Build the unit on @p as now, if the config has one and it is
     *  not built yet (multi-tenant runs anchor the IOMMU on the first
     *  tenant's space before any core exists). */
    void build(AddressSpace &as, MemorySystem &mem, EventQueue &eq);

    /** The IOMMU, once built; null for per-core-MMU designs. */
    Iommu *iommu() const { return iommu_.get(); }

    /** Register the unit's stats ("l2tlb.*" or "iommu.*"). */
    void regStats(StatRegistry &reg);

    /**
     * The arming step both run paths share, after their clock, memory
     * system and cores: adds the trace's health stats to @p reg, routes
     * span flow events through the trace and arms the unit at tid -1.
     * Begin telemetry after this, so its sampler sees the trace stats.
     */
    void arm(const RunObservers &obs, StatRegistry &reg);

    /** Drain invariants of the unit (no-op unarmed). */
    void checkEndOfKernel() const;

  private:
    SystemConfig cfg_;
    std::unique_ptr<L2Tlb> l2tlb_;
    std::unique_ptr<Iommu> iommu_;
};

} // namespace gpummu

#endif // CORE_SHARED_TRANSLATION_HH
