/**
 * @file
 * Complete configuration of one simulated GPU system.
 *
 * Every design point the paper evaluates is a SystemConfig value; the
 * presets in core/presets.hh construct the named ones (no-TLB
 * baseline, naive TLB, augmented TLB, ideal TLB, the CCWS family,
 * and the TBC variants).
 */

#ifndef CORE_SYSTEM_CONFIG_HH
#define CORE_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "gpu/simt_core.hh"
#include "mmu/iommu.hh"
#include "mmu/l2_tlb.hh"
#include "mem/memory_system.hh"
#include "sched/ccws.hh"
#include "tbc/tbc_core.hh"

namespace gpummu {

enum class SchedulerKind
{
    LooseRoundRobin,
    GreedyThenOldest,
    Ccws,   ///< cache-conscious wavefront scheduling
    TaCcws, ///< CCWS with TLB-miss-weighted scoring
    Tcws,   ///< TLB-conscious warp scheduling
};

enum class CoreKind
{
    Simt, ///< per-warp reconvergence stacks
    Tbc,  ///< thread block compaction
};

struct SystemConfig
{
    /** Human-readable label used in reports. */
    std::string name = "baseline";

    /** Shader cores (paper: 30 SIMT cores over 8 memory channels;
     *  the bandwidth ratio matters, so keep them in proportion). */
    unsigned numCores = 30;

    CoreConfig core;
    MemorySystemConfig mem;

    SchedulerKind sched = SchedulerKind::LooseRoundRobin;
    CcwsConfig ccws;
    TcwsConfig tcws;

    /** Tbc requires sched LooseRoundRobin (see validate()). */
    CoreKind coreKind = CoreKind::Simt;
    TbcConfig tbc;

    /**
     * Use the Section 2.2 IOMMU organisation instead of per-core
     * MMUs: GPU caches virtually addressed, one big TLB + walkers at
     * the memory controller. Requires core.mmu.enabled == false
     * and SIMT cores (see validate()).
     */
    bool iommu = false;
    IommuConfig iommuCfg;

    /**
     * Shared second-level TLB between every core's L1 TLB miss path
     * and its page walkers, with per-VPN translation MSHRs merging
     * concurrent cross-core misses into one walk. Off by default
     * (l2tlb.enabled); requires per-core MMUs, so it excludes IOMMU
     * mode (see validate()).
     */
    L2TlbConfig l2tlb;

    /** Back the address space with 2MB pages (Section 9). */
    bool largePages = false;

    /**
     * Arm the differential reference checker on every MMU / IOMMU of
     * the run: each TLB fill and hit is cross-checked against a pure
     * functional page-table walk, walks obey conservation, and all
     * blocking state must drain by kernel end. Violations panic.
     * Never changes simulated results (test_determinism asserts an
     * armed run is bit-identical to an unarmed one).
     */
    bool checkInvariants = false;

    /** Simulated physical memory, in 4KB frames. */
    std::uint64_t physFrames = 1ULL << 22; // 16GB

    Cycle maxCycles = 400'000'000;

    /**
     * Every rule that needs only this config, each stated once, over
     * the parts it builds: one "<dotted field> (<value>) <rule>" line
     * per violation, empty when every component accepts it. Rules
     * that need the workload (a block's warps, frames) stay with the
     * components.
     */
    std::vector<std::string> validate() const;
};

/** Fatal (exit 1) naming config @p name and listing @p violations
 *  one a line; returns when there are none. */
void requireValid(const std::string &name,
                  const std::vector<std::string> &violations);

} // namespace gpummu

#endif // CORE_SYSTEM_CONFIG_HH
