/**
 * @file
 * Multi-process OS-interaction layer: N concurrent processes, each
 * owning an ASID-tagged AddressSpace, plus the OS-side costs the
 * paper's single-process runs never pay — context switches on the
 * shared IOMMU, inter-core TLB shootdowns on munmap, and minor-fault
 * demand paging service time.
 *
 * Mirrors the nouveau driver's split (SNIPPETS.md snippet 1): the
 * nvkm_vm per-client address space with its nvkm_as region nodes is
 * our Process/AddressSpace/VmRegion; this manager plays nvkm_vmmgr,
 * handing out ASIDs and brokering unmaps against the hardware TLBs.
 *
 * A shootdown models the x86 IPI protocol cost shape: a fixed
 * initiation cost (trap + IPI fan-out + waiting on acks) plus a
 * per-invalidated-entry cost (INVLPG iterations on each responding
 * core). The manager walks every registered translation-caching
 * structure — per-core L1 TLBs, the shared L2 TLB (poisoning
 * in-flight MSHRs), the IOMMU TLB, and the per-core walk caches —
 * and removes exactly the dying ASID's entries in the dying VPN
 * range. Everything else survives: a tenant's unmap must not flush
 * its neighbours (the conservation property test_process_lifecycle
 * pins down).
 *
 * All counters live here, in a NEW component: existing single-process
 * stat dumps stay byte-identical because no existing regStats block
 * changes.
 */

#ifndef VM_PROCESS_HH
#define VM_PROCESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/address_space.hh"
#include "vm/physical_memory.hh"

namespace gpummu {

class Tlb;
class L2Tlb;
class PageWalkers;

/** OS cost knobs (cycles at GPU clock). */
struct OsConfig
{
    /** IOMMU context-switch penalty between different tenants
     *  (CR3 swap + pipeline drain; Kim et al. treat this as a
     *  first-class axis). */
    Cycle switchPenalty = 2000;
    /** Minor-fault service latency (OS fault handler round trip). */
    Cycle faultLatency = 4000;
    /** Fixed shootdown initiation cost (trap + IPI + acks). */
    Cycle shootdownBase = 400;
    /** Incremental cost per invalidated entry. */
    Cycle shootdownPerEntry = 8;
};

/** One process: an ASID plus its private address space. */
struct Process
{
    Asid asid = 0;
    std::string name;
    AddressSpace as;

    Process(Asid id, std::string nm, PhysicalMemory &phys,
            bool use_large, VirtAddr base)
        : asid(id), name(std::move(nm)),
          as(phys, use_large, base, id)
    {
    }
};

class ProcessManager : public VmEventListener
{
  public:
    explicit ProcessManager(PhysicalMemory &phys,
                            const OsConfig &cfg = OsConfig{});

    ProcessManager(const ProcessManager &) = delete;
    ProcessManager &operator=(const ProcessManager &) = delete;

    /**
     * Create a process. ASIDs are handed out from 1 (0 stays the
     * legacy single-process identity). All processes share the same
     * default VA base, so their virtual ranges overlap by
     * construction — the aliasing case the ASID plumbing exists for.
     * @param lazy  demand-page regions via faultIn instead of eager
     *              backing.
     */
    Process &create(const std::string &name, bool use_large = false,
                    bool lazy = false);

    Process &process(Asid asid);
    const Process &process(Asid asid) const;
    const std::vector<std::unique_ptr<Process>> &all() const
    {
        return procs_;
    }

    /** @{ Register the translation-caching structures a shootdown
     *  must reach. @p page_shift is the Tlb's tag granularity. */
    void addTlbTarget(Tlb *tlb, unsigned page_shift);
    void setL2Target(L2Tlb *l2) { l2_ = l2; }
    void addWalkerTarget(PageWalkers *w) { walkers_.push_back(w); }
    /** @} */

    /**
     * Unmap @p region from @p asid and shoot its translations out of
     * every registered structure. Returns the cycle the shootdown
     * completes (the unmapping core stalls until then).
     */
    Cycle munmap(Asid asid, const VmRegion &region, Cycle now);

    /** munmap every remaining region of @p asid (process exit). */
    Cycle destroy(Asid asid, Cycle now);

    /**
     * Invalidate @p asid's entries for 4KB VPNs in [lo4k, hi4k) in
     * every registered TLB/L2/walk-cache, at shootdown cost. Exposed
     * for tests; munmap/destroy call it internally.
     */
    Cycle shootdown(Asid asid, Vpn lo4k, Vpn hi4k, Cycle now);

    /** Account one IOMMU context switch; returns the penalty. */
    Cycle noteContextSwitch(Asid from, Asid to);

    /** Account one demand-fault service (Iommu calls this). */
    void noteFault(Asid asid);

    const OsConfig &osConfig() const { return cfg_; }

    /** VmEventListener (wired to every created AddressSpace). */
    void onDemandFault(Asid asid, Vpn vpn) override;
    void onCoalesce(Asid asid, std::uint64_t vpn2m) override;
    void onSplinter(Asid asid, std::uint64_t vpn2m) override;

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t shootdowns() const { return shootdowns_.value(); }
    std::uint64_t shootdownEntries() const
    {
        return shootdownEntries_.value();
    }
    std::uint64_t faults() const { return faults_.value(); }
    std::uint64_t contextSwitches() const { return switches_.value(); }
    std::uint64_t coalesces() const { return coalesces_.value(); }
    std::uint64_t splinters() const { return splinters_.value(); }

  private:
    struct TlbTarget
    {
        Tlb *tlb;
        unsigned pageShift;
    };

    /** Invalidate @p asid's cached translations for 4KB VPNs in
     *  [lo4k, hi4k) in every TLB target and the L2 (not the walk
     *  caches); returns the entry count. Uncosted: shootdown() adds
     *  the IPI cost on top, page-size promotions/demotions ride
     *  inside the fault service latency. */
    std::uint64_t invalidateRange4K(Asid asid, Vpn lo4k, Vpn hi4k);

    PhysicalMemory &phys_;
    OsConfig cfg_;
    std::vector<std::unique_ptr<Process>> procs_;
    Asid nextAsid_ = 1;

    std::vector<TlbTarget> tlbs_;
    L2Tlb *l2_ = nullptr;
    std::vector<PageWalkers *> walkers_;

    Counter shootdowns_;
    Counter shootdownEntries_;
    Counter shootdownCycles_;
    Counter faults_;
    Counter faultCycles_;
    Counter switches_;
    Counter switchCycles_;
    Counter coalesces_;
    Counter splinters_;
};

} // namespace gpummu

#endif // VM_PROCESS_HH
