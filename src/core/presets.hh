/**
 * @file
 * Named system configurations matching the paper's design points.
 */

#ifndef CORE_PRESETS_HH
#define CORE_PRESETS_HH

#include "core/system_config.hh"

namespace gpummu {
namespace presets {

/** The pre-unified-address-space GPU: no address translation. */
SystemConfig noTlb();

/**
 * The strawman CPU-style MMU (Section 6.2): blocking 128-entry TLB
 * with @p ports ports and one serial PTW, no walk scheduling.
 * Figure 2 uses 3 ports; Figures 7/10/11 onward use 4.
 */
SystemConfig naiveTlb(unsigned ports = 3);

/** Naive TLB with non-default geometry (Fig. 6 sweeps). */
SystemConfig naiveTlbSized(std::size_t entries, unsigned ports,
                           bool ideal_latency = false);

/** Naive blocking TLB with @p walkers independent PTWs (Fig. 11). */
SystemConfig naiveTlbMultiPtw(unsigned walkers);

/** + hits under misses (first non-blocking step, Fig. 7). */
SystemConfig tlbHitUnderMiss();

/** + overlapped cache access for the missing warp (Fig. 7). */
SystemConfig tlbCacheOverlap();

/**
 * The paper's full augmented MMU (Fig. 10): 128-entry 4-port TLB,
 * hit-under-miss, overlapped cache access, PTW scheduling, 1 walker.
 */
SystemConfig augmentedTlb();

/** Impractical reference: 512 entries, 32 ports, no latency cost. */
SystemConfig idealTlb();

/**
 * The Section 2.2 alternative: one large IOMMU TLB at the memory
 * controller, GPU caches virtually addressed, translation on the
 * L1-miss path.
 */
SystemConfig iommu();

/** CCWS on a given MMU config (default tuning). */
SystemConfig ccws(SystemConfig base);

/** TA-CCWS: CCWS weighting TLB-missing VTA hits @p weight : 1. */
SystemConfig taCcws(SystemConfig base, unsigned weight);

/**
 * TCWS with @p entries_per_warp TLB-VTA entries and optional LRU
 * depth weights (all-zero disables depth weighting).
 */
SystemConfig tcws(SystemConfig base, unsigned entries_per_warp,
                  std::array<std::uint64_t, 4> lru_weights);

/** Thread block compaction on a given MMU config. */
SystemConfig tbc(SystemConfig base);

/** TLB-aware TBC with @p cpm_bits-bit CPM counters (Fig. 22). */
SystemConfig tlbAwareTbc(SystemConfig base, unsigned cpm_bits);

/** Switch a config to 2MB pages (Section 9). */
SystemConfig withLargePages(SystemConfig cfg);

/**
 * Back @p cfg's per-core MMUs with a shared second-level TLB of
 * @p entries entries and @p ports lookup ports (the shared-L2 design
 * point of the heterogeneous-MMU studies; see PAPERS.md). Requires a
 * config with per-core MMUs enabled.
 */
SystemConfig withSharedL2Tlb(SystemConfig cfg,
                             std::size_t entries = 4096,
                             unsigned ports = 2);

} // namespace presets
} // namespace gpummu

#endif // CORE_PRESETS_HH
