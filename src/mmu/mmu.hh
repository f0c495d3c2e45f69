/**
 * @file
 * Per-shader-core memory management unit.
 *
 * Bundles the TLB, the walker pool, the CACTI access-time model and
 * the non-blocking policy state, and presents the interface the
 * shader core's memory stage drives:
 *
 *  - lookupBatch(): translate a warp's coalesced set of VPNs through
 *    the multi-ported TLB, reporting the port-serialization cost;
 *  - requestWalks(): start the one in-flight batch of walks for a
 *    warp's missing VPNs, with a completion callback per VPN;
 *  - memAvailable(): the blocking / hit-under-miss policy gate the
 *    warp scheduler consults before issuing a memory instruction.
 *
 * With `enabled == false` the MMU models the paper's no-TLB baseline:
 * translation is magic and free (the pre-unified-address-space GPU).
 */

#ifndef MMU_MMU_HH
#define MMU_MMU_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_checker.hh"
#include "mmu/cacti_model.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"

namespace gpummu {

class L2Tlb;
class SpanTracker;

struct MmuConfig
{
    /** False models the no-TLB baseline (magic translation). */
    bool enabled = true;
    TlbConfig tlb;
    PtwConfig ptw;
    CactiModel cacti;
    /**
     * Non-blocking feature 1: warps whose lookups all hit may proceed
     * while walks are outstanding (hits under misses). When false the
     * TLB blocks every memory instruction during a miss, the paper's
     * naive strawman.
     */
    bool hitUnderMiss = false;
    /**
     * Non-blocking feature 2: threads of the *missing* warp that hit
     * in the TLB access the L1 immediately instead of waiting for the
     * warp's walks to resolve (overlapped cache access). Consumed by
     * the shader core's memory stage.
     */
    bool cacheOverlap = false;
    /** TLB miss status holding registers (one per warp thread). */
    unsigned mshrs = 32;
    /**
     * Arm the differential reference checker: every TLB fill/hit is
     * verified against a pure functional walk, walks obey
     * conservation, and blocking state must drain by kernel end (see
     * check/invariant_checker.hh). Off by default; adds work but
     * never changes simulated results.
     */
    bool checkInvariants = false;
};

class Mmu
{
  public:
    /** Result of translating one VPN of a warp's batch. */
    struct VpnLookup
    {
        Vpn vpn = 0;
        bool hit = false;
        unsigned depth = 0; ///< LRU depth when hit
        /** Page frame base in pageSize units (valid on hit). */
        std::uint64_t frameBase = 0;
        /** Warp-history snapshot for the common page matrix. */
        std::array<int, 4> history{-1, -1, -1, -1};
        unsigned historyUsed = 0;
    };

    struct BatchResult
    {
        std::vector<VpnLookup> lookups;
        /** Extra pipeline cycles: port serialization + CACTI. */
        Cycle extraCycles = 0;
        bool allHit = true;
    };

    /** (vpn, frame base in pageSize units, completion cycle). */
    using WalkDoneFn =
        std::function<void(Vpn, std::uint64_t, Cycle)>;

    Mmu(const MmuConfig &cfg, AddressSpace &as, MemorySystem &mem,
        EventQueue &eq);

    const MmuConfig &config() const { return cfg_; }

    /** Log2 of the translation granularity (12 or 21). */
    unsigned pageShift() const { return pageShift_; }
    std::uint64_t pageSize() const { return 1ULL << pageShift_; }

    Vpn vpnOf(VirtAddr va) const { return va >> pageShift_; }

    /** Physical byte address from a hit frame base + original VA. */
    PhysAddr
    physAddr(std::uint64_t frame_base, VirtAddr va) const
    {
        return (frame_base << pageShift_) |
               (va & ((1ULL << pageShift_) - 1));
    }

    /**
     * Magic (zero-cost, always-correct) translation for the no-TLB
     * baseline and for store address generation.
     */
    PhysAddr magicTranslate(VirtAddr va) const;

    /**
     * Translate a warp's coalesced VPN set. Misses are identified
     * but walks are *not* started; the caller decides based on the
     * blocking policy (see requestWalks).
     */
    BatchResult lookupBatch(const std::vector<Vpn> &vpns, int warp_id);

    /** Allocation-free variant: results land in @p out (cleared
     *  first); the memory stage passes a reused scratch object. */
    void lookupBatchInto(BatchResult &out,
                         const std::vector<Vpn> &vpns, int warp_id);

    /**
     * Can a warp's memory instruction access the TLB right now?
     * Blocking TLB: only when no walk is outstanding.
     * Hit-under-miss: always (but a *missing* warp must consult
     * canStartMisses()).
     */
    bool memAvailable() const;

    /**
     * May a fresh set of misses start walking? False while walks are
     * outstanding under hit-under-miss (no miss-under-miss support,
     * matching the paper), or when MSHRs would overflow.
     */
    bool canStartMisses(std::size_t count) const;

    /**
     * Begin walks for the distinct missing VPNs of @p warp_id's
     * instruction. Only one batch is ever in flight (canStartMisses()
     * must hold). @p done fires at each VPN's completion, after the
     * TLB fill.
     */
    void requestWalks(const std::vector<Vpn> &vpns, int warp_id,
                      Cycle now, WalkDoneFn done);

    /** Install the one listener fired each time the miss batch
     *  retires, after its last tag's completion (unless that started
     *  the next batch). The core wakes and readies bounced warps. */
    void
    setDrainListener(std::function<void()> fn)
    {
        drainListener_ = std::move(fn);
    }

    bool missOutstanding() const { return !batch_.pending.empty(); }

    /**
     * Residency probe by local VPN. The L1 TLB stores ASID-composed
     * tags in multi-process runs; callers holding plain VPNs (the
     * memory stage's bounce check) must come through here rather than
     * tlb().probe().
     */
    bool probeTlb(Vpn vpn) const;

    /** The address space this MMU translates for. */
    Asid asid() const { return asid_; }

    Tlb &tlb() { return tlb_; }
    const Tlb &tlb() const { return tlb_; }
    PageWalkers &walkers() { return walkers_; }
    const PageWalkers &walkers() const { return walkers_; }

    /**
     * Attach the GPU-wide shared second-level TLB. When set, every
     * L1-TLB miss consults it before walking: hits avoid the walk,
     * misses allocate (or merge into) a translation MSHR and this
     * core's walker pool services the walk, filling the L2 so every
     * merged core wakes. Must be called before the first miss; the
     * shared instance must use this MMU's translation granularity.
     */
    void setL2Tlb(L2Tlb *l2);

    L2Tlb *l2Tlb() { return l2_; }
    const L2Tlb *l2Tlb() const { return l2_; }

    /** TLB shootdown from the host CPU (IPI-driven flush). Also
     *  flushes the shared L2 TLB when one is attached (idempotent
     *  across the cores sharing it). */
    void shootdown();

    /**
     * Kernel-end invariant check (no-op unarmed): no outstanding
     * walks, walker pool idle and conserved, every resident TLB
     * entry still equal to its reference walk.
     */
    void checkEndOfKernel() const;

    /**
     * Kernel boundary: run the drain checks, then clear transient
     * walker state (the issue-port reservation) so a following
     * kernel starts from a clean pipeline. Warm TLB/walk-cache
     * contents survive.
     */
    void endKernel();

    /** The armed checker, or nullptr (tests assert check volumes). */
    const InvariantChecker *checker() const { return checker_.get(); }

    /** Attach an event trace sink to the TLB and walker pool;
     *  @p tid labels this core's instances. */
    void
    setTraceSink(TraceSink *sink, int tid)
    {
        tlb_.setTraceSink(sink, tid);
        walkers_.setTraceSink(sink, tid);
    }

    /** Attach a translation heat profiler to the walker pool;
     *  @p tid labels this core in sharer masks. */
    void
    setHeatProfiler(HeatProfiler *heat, int tid)
    {
        walkers_.setHeatProfiler(heat, tid);
    }

    /**
     * Attach a translation-lifecycle span tracker (observation-only,
     * like the trace sink) to the TLB, the walker pool and this MMU's
     * own fill point; @p tid labels this core's spans. The
     * walker pool converts its 4K walk VPNs back to this MMU's
     * translation granularity so every layer stamps the same span key.
     */
    void
    setSpanTracker(SpanTracker *spans, int tid)
    {
        tlb_.setSpanTracker(spans, tid);
        walkers_.setSpanTracker(spans, tid,
                                pageShift_ - kPageShift4K);
        spans_ = spans;
    }

    void regStats(StatRegistry &reg, const std::string &prefix);

    /** Full TLB-miss service time distribution (Fig. 4). */
    const Histogram &missLatency() const { return missLatency_; }
    /** Always 0 (no miss under a miss); kept for stat dumps. */
    std::uint64_t mergedWalks() const { return mergedWalks_.value(); }
    /** Misses of this core satisfied by the shared L2 TLB (array
     *  hits + merges into other cores' in-flight walks). */
    std::uint64_t l2Satisfied() const { return l2Satisfied_.value(); }

  private:
    /**
     * Shared completion tail of every translation path (own walk, L2
     * hit, L2 MSHR wakeup): fill the L1 TLB, retire the tag from the
     * batch, sample the miss latency, fire the tag's completion and,
     * once the batch is empty, the drain listener.
     */
    void finishWalk(Vpn tag, std::uint64_t frame_base, bool is_large,
                    Cycle finish);

    /** A walk's translation -> (frame base in page units, large
     *  flag), asserting granularity agreement. */
    std::pair<std::uint64_t, bool> resolveWalk(const Translation &t) const;

    /** The in-flight miss batch: one warp's coalesced misses, started
     *  together and retired tag by tag. */
    struct MissBatch
    {
        struct Tag
        {
            Vpn vpn;
            /** Walked around a full shared-L2 MSHR file. */
            bool bypass;
        };

        Cycle start = 0;
        int warp = 0;
        WalkDoneFn done;
        /** Tags still walking; empty when no batch is in flight. */
        std::vector<Tag> pending;
    };

    /** The pending entry for @p tag (asserts it exists). */
    std::vector<MissBatch::Tag>::iterator pendingTag(Vpn tag);

    MmuConfig cfg_;
    AddressSpace &as_;
    unsigned pageShift_;
    /** Owning process; composed into every TLB/L2/checker key
     *  (identity for the legacy single-process ASID 0). */
    Asid asid_;
    std::unique_ptr<InvariantChecker> checker_;
    Tlb tlb_;
    PageWalkers walkers_;
    L2Tlb *l2_ = nullptr;
    SpanTracker *spans_ = nullptr;

    MissBatch batch_;
    /** requestWalks() scratch: the batch's 4K walk VPNs, reused so
     *  the miss path does not allocate (the walkers copy them). */
    std::vector<Vpn> walkVpnScratch_;
    std::function<void()> drainListener_;

    Counter mergedWalks_;
    Counter shootdowns_;
    Counter l2Satisfied_;
    Histogram missLatency_;
};

} // namespace gpummu

#endif // MMU_MMU_HH
