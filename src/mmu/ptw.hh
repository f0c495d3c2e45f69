/**
 * @file
 * Hardware page table walkers, naive and scheduled.
 *
 * Naive mode reproduces the paper's strawman: K independent walkers,
 * each performing one serial four-reference x86 walk at a time;
 * concurrent TLB misses queue behind them.
 *
 * Scheduled mode implements the paper's PTW scheduling contribution
 * (Figs. 8-9): one walker takes every pending walk as a batch and
 * processes it level by level through one comparator tree. Exactly
 * repeated references (same PML4/PDP/PD entry) are issued once, and
 * distinct PTEs falling on one 128-byte line are issued back to back
 * so the later ones hit in the shared L2. The paper's 3-walk example
 * drops from 12 loads to 7; the unit tests check that exact case.
 *
 * Both modes run through one engine: each walker slot holds its batch
 * (one walk when naive, the whole queue when scheduled) as a flat
 * array of references in (level, entry, walk) order, built level by
 * level so only a level whose entries arrive out of order is sorted.
 * A line is entry >> 7, so that order is the comparator tree's
 * by-level, by-line, by-entry issue order.
 */

#ifndef MMU_PTW_HH
#define MMU_PTW_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "vm/page_table.hh"

namespace gpummu {

class HeatProfiler;
class InvariantChecker;
class SpanTracker;
class TraceSink;

struct PtwConfig
{
    /** Independent naive walkers (paper compares 1, 2, 4, 8). */
    unsigned numWalkers = 1;
    /** Enable batch-coalescing walk scheduling (uses one walker). */
    bool scheduling = false;
    /**
     * Page walk cache: a small per-core cache of page-table *lines*
     * (the paging-structure caches x86 walkers ship with; see the
     * Intel paging-structure-cache note the paper cites). Upper
     * radix levels hit here almost always; leaf PTE lines mostly
     * still travel to the shared L2.
     */
    std::size_t pwcLines = 16;
    std::size_t pwcWays = 4;
    Cycle pwcHitLatency = 6;
    /**
     * All walkers of one core share a single issue port into the
     * memory system; successive references occupy it for this many
     * cycles. Multiple naive walkers therefore overlap latency but
     * not issue bandwidth.
     */
    Cycle portInterval = 4;
};

/**
 * The walker pool attached to one shader core's MMU.
 */
class PageWalkers
{
  public:
    /** Completion callback: (vpn4k, the walk's translation, finish
     *  cycle). */
    using DoneFn = std::function<void(Vpn, const Translation &, Cycle)>;
    /** Timing-only completion callback: (vpn4k, finish cycle). */
    using TimingDoneFn = std::function<void(Vpn, Cycle)>;

    PageWalkers(const PtwConfig &cfg, const PageTable &pt,
                MemorySystem &mem, EventQueue &eq);

    /**
     * Request walks for one warp's batch of missing 4KB-granularity
     * VPNs through the constructor's page table (asid 0). The
     * callback fires once per VPN at its completion cycle; it hears
     * no translation, so timing-only callers stay simple.
     */
    void requestBatch(const std::vector<Vpn> &vpns, Cycle now,
                      TimingDoneFn done);

    /**
     * Multi-process variant: walk @p vpns through an explicit page
     * table on behalf of @p asid. Checker and heat-profiler keys are
     * ASID-composed so concurrent processes cannot alias; the done
     * callback still receives the local VPN. requestBatch() is the
     * (pt constructor-bound, asid 0) special case. Walks from
     * different spaces coalesce in one scheduled batch only when
     * their paging-structure lines physically coincide — they never
     * do, as each table owns its frames. The callback receives the
     * translation the walk read, so callers need not walk again.
     */
    void requestBatchFor(const PageTable &pt, Asid asid,
                         const std::vector<Vpn> &vpns, Cycle now,
                         DoneFn done);

    /**
     * Shootdown hook: drop every walk-cache line backed by one of
     * @p pt's paging-structure pages (an unmap may retire table pages
     * by coalescing, and the IPI contract flushes the leaf lines).
     * Returns the number of lines invalidated.
     */
    std::size_t invalidatePagingLines(const PageTable &pt);

    /** True while any walk is in flight or queued. */
    bool busy() const { return inFlight_ > 0 || !queue_.empty(); }

    /**
     * Arm invariant checking: walk conservation (every enqueued walk
     * completes exactly once, across batching and coalescing) and
     * paging-structure containment of every issued reference and
     * walk-cache entry.
     */
    void setChecker(InvariantChecker *chk) { checker_ = chk; }

    /** Attach an event trace sink; @p tid labels this instance. */
    void
    setTraceSink(TraceSink *sink, int tid)
    {
        trace_ = sink;
        traceTid_ = tid;
    }

    /** Attach a translation heat profiler; @p tid labels this
     *  instance in sharer masks (-1 for GPU-wide pools). */
    void
    setHeatProfiler(HeatProfiler *heat, int tid)
    {
        heat_ = heat;
        heatTid_ = tid;
    }

    /**
     * Attach a translation-lifecycle span tracker (observation-only):
     * stamps enqueue / grant / completion on each walk's span and
     * classifies every issued reference by radix level and service
     * point (walk cache / shared L2 / DRAM). @p key_shift converts
     * this pool's 4K walk VPNs back to the owner's span-key
     * granularity (pageShift - 12; 0 for 4K owners like the IOMMU).
     */
    void
    setSpanTracker(SpanTracker *spans, int tid, unsigned key_shift)
    {
        spans_ = spans;
        spanTid_ = tid;
        spanKeyShift_ = key_shift;
    }

    /**
     * Kernel-end check: nothing queued or in flight, conservation
     * balanced, every resident walk-cache line still inside a live
     * paging-structure page. No-op when unarmed.
     */
    void checkDrained() const;

    /**
     * Kernel-boundary reset, called once the pool has drained. The
     * issue-port reservation can outlive the last walk's completion
     * (a trailing walk-cache hit completes before its port slot
     * expires whenever portInterval > pwcHitLatency), so without this
     * the next kernel's first reference inherits a stale delay and
     * back-to-back kernels are not timing-independent. The walk cache
     * itself survives: warm paging-structure lines are real state.
     */
    void onKernelDrained();

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t walksCompleted() const { return walks_.value(); }
    std::uint64_t refsIssued() const { return refsIssued_.value(); }
    std::uint64_t refsEliminated() const
    {
        return refsEliminated_.value();
    }
    std::uint64_t pwcHits() const { return pwcHits_.value(); }

    const PtwConfig &config() const { return cfg_; }

  private:
    struct PendingWalk
    {
        Vpn vpn;
        Cycle enqueued;
        DoneFn done;
        /** Radix this walk traverses (multi-process: per-walk). */
        const PageTable *pt = nullptr;
        Asid asid = 0;
        /** What the walk reads (entries and translation), set when
         *  its batch starts. */
        WalkPath path{};
    };

    /** One walk's reference at one radix level. */
    struct Ref
    {
        PhysAddr entry;
        /** Index into Walker::walks. */
        std::uint32_t walk;
        std::uint8_t level;
        /** This reference yields the walk's translation. */
        bool last;
    };

    /**
     * One walker slot and its in-flight batch. References are in
     * (level, entry, walk) order: a level may start only when the
     * previous one finished (the pointer chase), but within a level
     * references pipeline at the port rate - the comparator tree
     * issues them successively (Fig. 9). The level event refers to
     * the slot and each completion event to its walk in the slot
     * (`[&w, idx]`): a slot's last level event fires at the batch's
     * latest ready cycle, after every completion, so `walks` stays
     * put until they have all fired. The vectors keep their capacity
     * from batch to batch.
     */
    struct Walker
    {
        PageWalkers *pool = nullptr;
        bool busy = false;
        std::vector<PendingWalk> walks;
        std::vector<Ref> refs;
        /** First reference of the next level to issue. */
        std::size_t next = 0;
        /** Completion events scheduled but not yet fired. */
        unsigned completing = 0;
    };

    /** Move one queued walk (naive) or the whole queue (scheduled)
     *  onto idle walker @p w and issue its first level. */
    void startBatch(Walker &w, Cycle now);

    /** Issue @p w's next level of references; event-chained. */
    void stepLevel(Walker &w, Cycle now);

    /** Completion event of @p w's walk @p idx (fires at its ready
     *  cycle). */
    void completeWalk(Walker &w, std::uint32_t idx);

    /** One page-table reference at radix @p level, checking the walk
     *  cache first.
     *  @return the cycle the referenced entry is available. */
    Cycle walkRef(PhysAddr line_addr, unsigned level, Cycle at);

    /** Dispatch queued work onto idle walkers. */
    void pump(Cycle now);

    PtwConfig cfg_;
    const PageTable &pt_;
    MemorySystem &mem_;
    EventQueue &eq_;
    InvariantChecker *checker_ = nullptr;
    TraceSink *trace_ = nullptr;
    int traceTid_ = 0;
    HeatProfiler *heat_ = nullptr;
    int heatTid_ = 0;
    SpanTracker *spans_ = nullptr;
    int spanTid_ = 0;
    unsigned spanKeyShift_ = 0;

    std::deque<PendingWalk> queue_;
    /** Fixed at construction (1 if scheduling, else numWalkers), so
     *  the references pending events hold stay valid. */
    std::vector<Walker> walkers_;
    Cycle portFreeAt_ = 0;
    /** Walk cache payload: the cycle the line's fill completes, so a
     *  hit on a line still in flight from memory waits for it
     *  (no hit-under-fill optimism). */
    SetAssocArray<Cycle> pwc_;
    unsigned inFlight_ = 0;

    Counter walks_;
    Counter refsIssued_;
    Counter refsEliminated_;
    Counter batches_;
    Counter pwcHits_;
    Histogram walkLatency_;
};

} // namespace gpummu

#endif // MMU_PTW_HH
