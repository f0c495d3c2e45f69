/**
 * @file
 * IOMMU-style translation: the pre-unified-address-space alternative
 * the paper describes in Section 2.2.
 *
 * Today's discrete designs put one large TLB plus walkers *at the
 * memory controller* (Intel VT-d / AMD IOMMU), which leaves the GPU's
 * own caches virtually addressed. Translation therefore sits on the
 * L1-miss path instead of beside the L1: hits in the (virtual) L1
 * never translate, but every L1 miss from every core funnels through
 * this one shared structure.
 *
 * The paper argues against this organisation on programmability
 * grounds (synonyms/homonyms, context switches, coherence); this
 * model makes the *performance* side of that comparison measurable.
 */

#ifndef MMU_IOMMU_HH
#define MMU_IOMMU_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "mmu/miss_table.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"

namespace gpummu {

struct IommuConfig
{
    /** IOMMUs afford much larger TLBs than L1-parallel designs. */
    TlbConfig tlb{.entries = 1024, .ways = 8, .ports = 2,
                  .historyLength = 0};
    PtwConfig ptw{.numWalkers = 4, .scheduling = false};
    /** Lookup occupancy: one request per interval (pipelined CAM). */
    Cycle lookupInterval = 1;
    /** Fixed pipeline latency of a lookup at the controller. */
    Cycle lookupLatency = 8;
    /** Arm the differential reference checker (see MmuConfig). */
    bool checkInvariants = false;
};

class ProcessManager;

/**
 * One IOMMU shared by every shader core of the GPU.
 */
class Iommu
{
  public:
    /** (frame base in 4KB pages, cycle the translation is ready). */
    using DoneFn = std::function<void(std::uint64_t, Cycle)>;

    Iommu(const IommuConfig &cfg, AddressSpace &as, MemorySystem &mem,
          EventQueue &eq);

    /**
     * Translate @p key for a request arriving at the controller at
     * @p now. The key is an ASID-composed 4KB VPN (plain VPN in
     * single-process runs, where the ASID half is 0). The callback
     * fires synchronously on a TLB hit and at walk completion
     * otherwise. In multi-process mode a touch of an
     * unmapped-but-reserved page raises a minor fault: the OS
     * handler's service latency elapses, the page is faulted in, and
     * the walk then proceeds (the retry).
     */
    void translate(Vpn key, Cycle now, DoneFn done);

    /**
     * Enter multi-process mode: translate() keys may carry any ASID
     * registered with @p pm, each resolved against the owning
     * process's page table, and demand faults are serviced through
     * pm's OS cost model. The armed checker learns every process's
     * reference walker.
     */
    void attachProcesses(ProcessManager *pm);

    Tlb &tlb() { return tlb_; }
    PageWalkers &walkers() { return walkers_; }

    /** Kernel-end invariant check (no-op unarmed); see Mmu. */
    void checkEndOfKernel() const;

    /** The armed checker, or nullptr. */
    const InvariantChecker *checker() const { return checker_.get(); }

    /** Attach an event trace sink to the shared TLB and walkers. */
    void
    setTraceSink(TraceSink *sink, int tid)
    {
        tlb_.setTraceSink(sink, tid);
        walkers_.setTraceSink(sink, tid);
    }

    /** Attach a translation heat profiler to the shared walkers
     *  (tid -1: references are GPU-wide, not per core). */
    void
    setHeatProfiler(HeatProfiler *heat, int tid)
    {
        walkers_.setHeatProfiler(heat, tid);
    }

    /**
     * Attach a translation-lifecycle span tracker (observation-only).
     * The shared TLB is deliberately *not* armed: each requesting
     * core's memory stage opens the span when the request departs for
     * the controller, and this unit stamps the lookup / hit / merge /
     * fault / fill stages onto it (translate() keys already are span
     * keys). Walker stages ride the pool's own hooks at key shift 0.
     */
    void
    setSpanTracker(SpanTracker *spans, int tid)
    {
        spans_ = spans;
        spanTid_ = tid;
        walkers_.setSpanTracker(spans, tid, 0);
    }

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t lookups() const { return tlb_.accesses(); }
    std::uint64_t hits() const { return tlb_.hits(); }

  private:
    /** The address space owning @p asid (as_ or one of pm_'s). */
    AddressSpace &spaceFor(Asid asid);

    /** Issue the page walk for @p key (post-lookup, post-fault). */
    void issueWalk(Vpn key, Cycle at);

    IommuConfig cfg_;
    AddressSpace &as_;
    EventQueue &eq_;
    ProcessManager *pm_ = nullptr;
    std::unique_ptr<InvariantChecker> checker_;
    Tlb tlb_;
    PageWalkers walkers_;
    SpanTracker *spans_ = nullptr;
    int spanTid_ = 0;
    Cycle portFreeAt_ = 0;

    /** Waiters for in-flight walks, merged per composed key; the
     *  record is the first request's arrival cycle. */
    MissTable<DoneFn, Cycle> outstanding_;
    /** issueWalk's one-VPN batch, reused walk after walk. */
    std::vector<Vpn> walkVpn_;

    Counter mergedWalks_;
    Histogram missLatency_;
};

} // namespace gpummu

#endif // MMU_IOMMU_HH
