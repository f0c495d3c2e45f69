/**
 * @file
 * Shader core memory stage (Fig. 5 of the paper).
 *
 * Drives one warp memory instruction through: address generation
 * (done by the caller), coalescing into unique lines + unique PTEs,
 * parallel TLB / L1 presentation, walk initiation on misses, and the
 * paper's non-blocking policies:
 *
 *  - blocking TLB: the core gates issue on Mmu::memAvailable();
 *  - hit-under-miss: all-hit warps proceed during outstanding walks,
 *    would-miss warps are bounced (BlockedTlbBusy) and must retry
 *    after the MMU drains (no miss-under-miss). The bounce is decided
 *    from the lane addresses before coalescing, so a bounced attempt
 *    costs TLB probes but no coalesce;
 *  - overlapped cache access: the missing warp's TLB-hitting lines
 *    access the L1 immediately; lines under missing pages go as each
 *    walk finishes.
 *
 * The stage is shared by the per-warp-stack core and the TBC core.
 */

#ifndef GPU_MEMORY_STAGE_HH
#define GPU_MEMORY_STAGE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/coalescer.hh"
#include "mem/l1_cache.hh"
#include "mmu/iommu.hh"
#include "mmu/mmu.hh"
#include "sched/warp_scheduler.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "trace/stall_accounting.hh"

namespace gpummu {

class HeatProfiler;
class SpanTracker;
class TraceSink;

enum class MemIssueResult
{
    Issued,        ///< op accepted; completion callback will fire
    BlockedTlbBusy ///< would miss under a miss; retry after drain
};

class MemoryStage
{
  public:
    /** Fires exactly once with the warp's resume cycle. */
    using CompleteFn = std::function<void(Cycle)>;
    /** TLB-hit hook carrying the entry's warp history (for the CPM). */
    using TlbHitHistoryFn =
        std::function<void(int warp, Vpn vpn,
                           const std::array<int, 4> &history,
                           unsigned used)>;

    MemoryStage(Mmu &mmu, L1Cache &l1, EventQueue &eq);

    /** The scheduler receiving cache/TLB feedback (may be null). */
    void setScheduler(WarpScheduler *sched) { sched_ = sched; }

    /**
     * Switch to IOMMU mode (Section 2.2 baseline): the L1 is
     * virtually addressed and translation happens at the shared
     * memory-controller IOMMU on the L1-miss path. Requires the
     * per-core MMU to be disabled.
     */
    void setIommu(Iommu *iommu) { iommu_ = iommu; }

    /**
     * Owning process of this core's current kernel (multi-tenant
     * IOMMU runs). Composed into the virtual L1 line ids and the
     * IOMMU translate keys so co-scheduled tenants with overlapping
     * VAs cannot alias; 0 (default) is the identity.
     */
    void setAsid(Asid asid) { asid_ = asid; }

    /** Optional CPM hook for TLB-aware TBC. */
    void
    setTlbHitHistoryHook(TlbHitHistoryFn fn)
    {
        onTlbHitHistory_ = std::move(fn);
    }

    /**
     * Issue one warp memory instruction.
     *
     * Under hit-under-miss with a walk outstanding, the lanes' pages
     * are probed first and the first non-resident one bounces the
     * instruction (BlockedTlbBusy) without coalescing it; an armed
     * trace still records the attempt's coalesce.
     *
     * @param warp_id    hardware warp slot
     * @param is_store   store (translation blocks, data does not)
     * @param lane_addrs virtual addresses of the active lanes
     * @param now        issue cycle
     * @param complete   resume callback (sync or async)
     */
    MemIssueResult issue(int warp_id, bool is_store,
                         const std::vector<VirtAddr> &lane_addrs,
                         Cycle now, CompleteFn complete);

    void regStats(StatRegistry &reg, const std::string &prefix);

    /** Attach an event trace sink; @p tid labels this core. */
    void
    setTraceSink(TraceSink *sink, int tid)
    {
        trace_ = sink;
        traceTid_ = tid;
    }

    /** Attach a translation heat profiler (feeds its per-interval
     *  page-divergence series). */
    void setHeatProfiler(HeatProfiler *heat) { heat_ = heat; }

    /**
     * Attach a translation-lifecycle span tracker (observation-only).
     * Only the IOMMU path uses it here: the span for each missing
     * page opens when its translate request departs this core for the
     * memory controller (MMU-path spans open inside the L1 TLB).
     */
    void
    setSpanTracker(SpanTracker *spans, int tid)
    {
        spans_ = spans;
        spanTid_ = tid;
    }

    /**
     * Dominant stall cause of the most recently issued instruction
     * (valid right after issue() returns Issued). The core snapshots
     * it to attribute the warp's subsequent wait cycles.
     */
    StallReason lastIssueReason() const { return lastIssueReason_; }

    const Histogram &pageDivergence() const { return pageDivergence_; }
    std::uint64_t memInstructions() const { return memInstrs_.value(); }
    std::uint64_t tlbBusyBounces() const { return tlbBounces_.value(); }

  private:
    /**
     * Miss-path state of the warp memory instruction whose walks are
     * in flight. The Mmu holds one miss batch at a time (no miss
     * under a miss), so the stage keeps exactly one.
     */
    struct WalkPending
    {
        std::size_t remainingWalks = 0;
        Cycle ready = 0;
        Cycle lastWalkDone = 0;
        bool isStore = false;
        bool overlap = false;
        int warpId = -1;
        /** vlines to replay per missing vpn (and, without overlap,
         *  the already-hit groups too, frame resolved eagerly). */
        std::vector<
            std::pair<std::uint64_t, std::vector<std::uint64_t>>>
            deferredByFrame;
        std::vector<std::pair<Vpn, std::vector<std::uint64_t>>>
            deferredByVpn;
        CompleteFn complete;
    };

    /** IOMMU-path equivalent of WalkPending, one per warp: a warp
     *  has at most one load translating at the IOMMU. */
    struct IommuPending
    {
        std::size_t remaining = 0;
        Cycle ready = 0;
        CompleteFn complete;
    };

    /** Access one physical line, absorbing MSHR-full retries. */
    Cycle accessLine(PhysAddr pline, bool is_store, Cycle at,
                     int warp_id, bool tlb_missed_instr);

    /** IOMMU-mode issue path (virtually addressed caches). */
    MemIssueResult issueIommu(int warp_id, bool is_store,
                              const CoalescedAccess &acc, Cycle now,
                              CompleteFn complete);

    /** Hit-under-miss bounce: a walk is outstanding and some lane's
     *  page is not resident in the L1 TLB (per-core MMU only). */
    bool wouldMissUnderMiss(
        const std::vector<VirtAddr> &lane_addrs) const;

    /** Fold one access outcome into the instruction's stall cause. */
    void noteOutcome(const AccessOutcome &out, bool is_store);

    /** Access the pending instruction's @p vlines under @p frame. */
    void replay(std::uint64_t frame,
                const std::vector<std::uint64_t> &vlines, Cycle at);

    /** One of the pending instruction's walks finished. */
    void walkDone(Vpn vpn, std::uint64_t frame, Cycle fin);

    /** An IOMMU translation for @p warp_id's load finished. */
    void iommuDone(int warp_id, Cycle done);

    Mmu &mmu_;
    L1Cache &l1_;
    EventQueue &eq_;
    WarpScheduler *sched_ = nullptr;
    Iommu *iommu_ = nullptr;
    TlbHitHistoryFn onTlbHitHistory_;
    TraceSink *trace_ = nullptr;
    int traceTid_ = 0;
    HeatProfiler *heat_ = nullptr;
    SpanTracker *spans_ = nullptr;
    int spanTid_ = 0;
    StallReason lastIssueReason_ = StallReason::None;
    Asid asid_ = 0;

    WalkPending walk_;
    /** Indexed by warp id, grown on demand. */
    std::vector<IommuPending> iommuPending_;

    /**
     * issue() scratch, reused across instructions so the per-issue
     * path performs no allocation. Safe because issue() is never
     * re-entered: it calls a completion synchronously only as its
     * last step, and walk and IOMMU completions arrive as events.
     * Anything that outlives the call (deferred replay lines) is
     * copied into the pending record.
     */
    CoalescedAccess accScratch_;
    std::vector<std::vector<std::uint64_t>> spareLines_;
    Mmu::BatchResult batchScratch_;
    std::vector<Vpn> vpnScratch_;
    std::vector<Vpn> missVpnScratch_;
    std::vector<Vpn> iommuMissScratch_;

    Counter memInstrs_;
    Counter tlbBounces_;
    Counter instrsWithTlbMiss_;
    Histogram pageDivergence_;
    Histogram linesPerInstr_;
};

} // namespace gpummu

#endif // GPU_MEMORY_STAGE_HH
