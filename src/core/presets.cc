#include "core/presets.hh"

namespace gpummu {
namespace presets {

SystemConfig
noTlb()
{
    SystemConfig cfg;
    cfg.name = "no-tlb";
    cfg.core.mmu.enabled = false;
    return cfg;
}

SystemConfig
naiveTlb(unsigned ports)
{
    SystemConfig cfg;
    cfg.name = "naive-tlb-" + std::to_string(ports) + "p";
    cfg.core.mmu.enabled = true;
    cfg.core.mmu.tlb.entries = 128;
    cfg.core.mmu.tlb.ports = ports;
    cfg.core.mmu.hitUnderMiss = false;
    cfg.core.mmu.cacheOverlap = false;
    cfg.core.mmu.ptw.numWalkers = 1;
    cfg.core.mmu.ptw.scheduling = false;
    return cfg;
}

SystemConfig
naiveTlbSized(std::size_t entries, unsigned ports, bool ideal_latency)
{
    SystemConfig cfg = naiveTlb(ports);
    cfg.name = "naive-tlb-" + std::to_string(entries) + "e-" +
               std::to_string(ports) + "p" +
               (ideal_latency ? "-ideal" : "");
    cfg.core.mmu.tlb.entries = entries;
    cfg.core.mmu.cacti.ideal = ideal_latency;
    return cfg;
}

SystemConfig
naiveTlbMultiPtw(unsigned walkers)
{
    SystemConfig cfg = naiveTlb(4);
    cfg.name = "naive-tlb-" + std::to_string(walkers) + "ptw";
    cfg.core.mmu.ptw.numWalkers = walkers;
    return cfg;
}

SystemConfig
tlbHitUnderMiss()
{
    SystemConfig cfg = naiveTlb(4);
    cfg.name = "tlb-hum";
    cfg.core.mmu.hitUnderMiss = true;
    return cfg;
}

SystemConfig
tlbCacheOverlap()
{
    SystemConfig cfg = tlbHitUnderMiss();
    cfg.name = "tlb-hum-overlap";
    cfg.core.mmu.cacheOverlap = true;
    return cfg;
}

SystemConfig
augmentedTlb()
{
    SystemConfig cfg = tlbCacheOverlap();
    cfg.name = "augmented-tlb";
    cfg.core.mmu.ptw.scheduling = true;
    return cfg;
}

SystemConfig
idealTlb()
{
    SystemConfig cfg = augmentedTlb();
    cfg.name = "ideal-tlb";
    cfg.core.mmu.tlb.entries = 512;
    cfg.core.mmu.tlb.ports = 32;
    cfg.core.mmu.cacti.ideal = true;
    return cfg;
}

SystemConfig
iommu()
{
    SystemConfig cfg;
    cfg.name = "iommu";
    cfg.core.mmu.enabled = false;
    cfg.iommu = true;
    return cfg;
}

SystemConfig
withScheduler(SystemConfig cfg, SchedulerKind kind)
{
    cfg.sched = kind;
    return cfg;
}

SystemConfig
ccws(SystemConfig base)
{
    base.name += "+ccws";
    base.sched = SchedulerKind::Ccws;
    base.ccws.tlbMissWeight = 1;
    return base;
}

SystemConfig
taCcws(SystemConfig base, unsigned weight)
{
    base.name += "+ta-ccws-" + std::to_string(weight) + "x";
    base.sched = SchedulerKind::TaCcws;
    base.ccws.tlbMissWeight = weight;
    return base;
}

SystemConfig
tcws(SystemConfig base, unsigned entries_per_warp,
     std::array<std::uint64_t, 4> lru_weights)
{
    base.name += "+tcws-" + std::to_string(entries_per_warp) + "epw";
    if (lru_weights != std::array<std::uint64_t, 4>{0, 0, 0, 0}) {
        base.name += "-lru" + std::to_string(lru_weights[0]) +
                     std::to_string(lru_weights[1]) +
                     std::to_string(lru_weights[2]) +
                     std::to_string(lru_weights[3]);
    }
    base.sched = SchedulerKind::Tcws;
    base.tcws.vtaEntriesPerWarp = entries_per_warp;
    base.tcws.lruWeights = lru_weights;
    return base;
}

SystemConfig
tbc(SystemConfig base)
{
    base.name += "+tbc";
    base.coreKind = CoreKind::Tbc;
    base.tbc.tlbAware = false;
    return base;
}

SystemConfig
tlbAwareTbc(SystemConfig base, unsigned cpm_bits)
{
    base.name += "+tlb-tbc-" + std::to_string(cpm_bits) + "b";
    base.coreKind = CoreKind::Tbc;
    base.tbc.tlbAware = true;
    base.tbc.cpm.counterBits = cpm_bits;
    return base;
}

SystemConfig
withLargePages(SystemConfig cfg)
{
    cfg.name += "+2mb";
    cfg.largePages = true;
    return cfg;
}

SystemConfig
withSharedL2Tlb(SystemConfig cfg, std::size_t entries, unsigned ports)
{
    cfg.name += "+l2tlb-" + std::to_string(entries) + "e-" +
                std::to_string(ports) + "p";
    cfg.l2tlb.enabled = true;
    cfg.l2tlb.entries = entries;
    cfg.l2tlb.ports = ports;
    return cfg;
}

} // namespace presets
} // namespace gpummu
