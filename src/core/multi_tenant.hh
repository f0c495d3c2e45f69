/**
 * @file
 * Multi-tenant top level: N processes time-share one IOMMU-mode GPU.
 *
 * The paper's runs are single-process; this runner models the
 * OS-interaction costs that design must eventually pay (the Section
 * 2.2 programmability argument made quantitative): per-process
 * ASID-tagged address spaces with overlapping virtual ranges, context
 * switches on the shared IOMMU, minor-fault demand paging, and TLB
 * shootdowns on unmap that must reach every translation-caching
 * structure without disturbing the co-resident tenant.
 *
 * Scheduling is block-granular whole-GPU time slicing: each slice
 * runs one tenant's next batch of thread blocks to completion on a
 * fresh set of shader cores (the GPU has no mid-block preemption),
 * then the next tenant takes the machine behind a context-switch
 * penalty. The IOMMU TLB, walkers, memory system and event queue
 * persist across slices, so a tenant's translations survive its
 * neighbour's slices — until its own munmaps shoot them down.
 */

#ifndef CORE_MULTI_TENANT_HH
#define CORE_MULTI_TENANT_HH

#include <string>
#include <vector>

#include "core/run_observers.hh"
#include "core/system_config.hh"
#include "vm/process.hh"
#include "workloads/workload.hh"

namespace gpummu {

/** One co-scheduled process. */
struct TenantSpec
{
    BenchmarkId bench = BenchmarkId::Bfs;
    std::string name;
};

struct MultiTenantConfig
{
    /** Base machine; must be an IOMMU-mode config (presets::iommu()):
     *  per-core MMUs cannot hold two processes' translations at once
     *  in this model, the shared IOMMU can. */
    SystemConfig system;
    /** OS cost knobs (context switch, fault service, shootdown). */
    OsConfig os;
    /** Workload knobs shared by every tenant. */
    WorkloadParams params;
    std::vector<TenantSpec> tenants;
    /** Thread blocks a tenant runs per slice of the machine. */
    unsigned blocksPerSlice = 8;
    /** Demand-page tenant regions (minor faults at the IOMMU)
     *  instead of eagerly backing them. */
    bool lazyBacking = true;

    /** system.validate() under "system.", then the multi-tenant
     *  rules, in its "<field> (<value>) <rule>" form. */
    std::vector<std::string> validate() const;
};

/** Per-tenant slice-accumulated results. */
struct TenantResult
{
    std::string name;
    Asid asid = 0;
    std::uint64_t blocks = 0;
    /** Cycles this tenant owned the machine. */
    Cycle activeCycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memInstructions = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t idleCycles = 0;
};

struct MultiTenantResult
{
    std::vector<TenantResult> tenants;
    /** End-to-end cycles including switch and shootdown time. */
    Cycle totalCycles = 0;
    std::uint64_t slices = 0;
    std::uint64_t contextSwitches = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t shootdownEntries = 0;
    std::uint64_t faults = 0;
    std::uint64_t coalesces = 0;
    std::uint64_t splinters = 0;
    std::uint64_t iommuLookups = 0;
    std::uint64_t iommuHits = 0;
    std::uint64_t eventsFired = 0;
    /** Fixed-field-order JSON (summary + full stat registry);
     *  identical runs produce identical bytes. */
    std::string statsJson;
};

/**
 * Run every tenant to completion under time slicing. Each slice
 * builds its cores with the same SharedTranslation wiring as
 * runWorkloadFull and drives them through the same cycle loop as
 * GpuTop::run (runCycleLoop), on the machine's persistent clock.
 *
 * @p obs is observation-only. @c trace, @c telemetry and @c spans
 * attach to the persistent structures (clock, memory system, IOMMU at
 * tid -1) and to each slice's transient cores. Span keys carry each
 * tenant's ASID, so the exports break the lifecycle decomposition
 * down per process. A non-null @c memtrace is fatal: a memory trace
 * replays one process's kernel.
 */
MultiTenantResult runMultiTenant(const MultiTenantConfig &cfg,
                                 const RunObservers &obs = {});

/** The canonical two-tenant configuration (defaultTenantPair() on an
 *  IOMMU machine) at workload scale @p scale. */
MultiTenantConfig defaultMultiTenant(double scale);

} // namespace gpummu

#endif // CORE_MULTI_TENANT_HH
