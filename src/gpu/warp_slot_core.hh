/**
 * @file
 * What both shader cores share: warp slots tracked by readiness
 * masks, interval stall charging, sleep, and the L1/MMU/memory-stage
 * stack. SimtCore (per-warp stacks) and TbcCore (thread block
 * compaction, whose dynamic warp i of a block takes the block's warp
 * slot warpBase + i) add only their execution model.
 */

#ifndef GPU_WARP_SLOT_CORE_HH
#define GPU_WARP_SLOT_CORE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "gpu/memory_stage.hh"
#include "gpu/shader_core.hh"
#include "gpu/simt_stack.hh"
#include "mem/l1_cache.hh"
#include "mmu/mmu.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace gpummu {

struct CoreConfig
{
    unsigned numWarpSlots = 48; ///< paper: 48 warps per shader core
    unsigned issueWidth = 2;    ///< issues per cycle, at most 1 memory
    Cycle aluLatency = 2;
    L1CacheConfig l1;
    MmuConfig mmu;
};

/** Kernel launch parameters shared by all cores of a run. */
struct LaunchParams
{
    const KernelProgram *program = nullptr;
    unsigned threadsPerBlock = 256;
    unsigned totalBlocks = 0;
    std::uint64_t seed = 1;
};

class WarpSlotCore : public ShaderCore
{
  public:
    WarpSlotCore(const WarpSlotCore &) = delete;
    WarpSlotCore &operator=(const WarpSlotCore &) = delete;

    /** Warps per thread block for the configured launch. */
    unsigned warpsPerBlock() const;

    bool lastTickQuiescent() const override { return quiescent_; }
    /** While warps are resident, the core also wakes for its timer. */
    Cycle
    wakeHint() const override
    {
        return live_ != 0 ? std::min(nextWake_, nextTimer()) : nextWake_;
    }
    void chargeSkipped(Cycle now, Cycle n) override;
    void flushDeferredCharges() override;

    /** True when no resident warps remain. */
    bool idle() const override { return live_ == 0; }

    Mmu &mmu() override { return mmu_; }
    L1Cache &l1() override { return l1_; }
    MemoryStage &memStage() override { return memStage_; }

    void setTraceSink(TraceSink *sink) override;
    void setHeatProfiler(HeatProfiler *heat) override;
    void setSpanTracker(SpanTracker *spans) override;
    WarpStallAccounting &stallAccounting() override { return stalls_; }

    void regStats(StatRegistry &reg,
                  const std::string &prefix) override;

    std::uint64_t instructionsIssued() const override
    {
        return instrs_.value();
    }
    std::uint64_t idleCycles() const override
    {
        return idleCycles_.value();
    }
    std::uint64_t blocksCompleted() const
    {
        return blocksCompleted_.value();
    }

  protected:
    WarpSlotCore(int core_id, const CoreConfig &cfg,
                 const LaunchParams &launch, AddressSpace &as,
                 MemorySystem &mem, EventQueue &eq);

    /** A resident thread block's threads and block-entry counts. */
    struct BlockThreads
    {
        bool valid = false;
        unsigned globalId = 0;
        unsigned threadsLive = 0;
        std::vector<ThreadCtx> threads;
        /** Block-entry counts of basic block b for thread t at
         *  [b * threadsPerBlock + t]; each ThreadCtx reads a column. */
        std::vector<std::uint32_t> visits;
    };

    /** The core's periodic work (a scheduler's tick, the CPM
     *  flush), run in each tick with warps resident and for skipped
     *  cycles; it changes state first at nextTimer(). */
    virtual void tickTimer(Cycle now) = 0;
    virtual Cycle nextTimer() const = 0;

    /** Make @p blk thread block @p global_block_id: every thread
     *  live, with fresh contexts and zeroed block-entry counts. */
    void startBlock(BlockThreads &blk, unsigned global_block_id) const;

    /** Warp slot @p wid turns Ready at @p ready: park it in timed_. */
    void makeTimed(int wid, Cycle ready);
    /** Move timed warps whose readyAt_ has passed into due_, charging
     *  their waits; the caller classifies the returned warps. */
    std::uint64_t promoteTimed(Cycle now);
    /** Charge warp slot @p wid's open wait up to (excluding) @p end. */
    void chargeWait(int wid, Cycle end);
    /** The due memory warps; those held at the blocking TLB's gate
     *  go to tlbGated_ and are charged this cycle. */
    std::uint64_t gateMemory();
    /** Record the tick's idle charges and whether the core may sleep
     *  (see quiescent_). @p held: due warps a gate held back. */
    void endTick(Cycle now, unsigned issued, bool retired,
                 std::uint64_t ready, std::uint64_t held);

    int coreId_;
    CoreConfig cfg_;
    LaunchParams launch_;
    EventQueue &eq_;

    L1Cache l1_;
    Mmu mmu_;
    MemoryStage memStage_;
    WarpStallAccounting stalls_;

    /**
     * Warp readiness as masks over warp slots (so at most 64). live_
     * holds the slots with a resident warp. A Ready warp is *due*
     * once its readyAt_ cycle has passed and *timed* before that;
     * nextWake_ is the earliest readyAt_ in timed_. readyAt_ is one
     * array per core, indexed by warp slot and valid for timed warps,
     * so promoteTimed() reads contiguous cycles. A completion
     * callback moves a waiting warp into timed_. The core marks a
     * warp as it becomes due: in memNext_ if its next instruction is
     * a load or a store. tick() visits only the warps it retires or
     * issues and scans timed_ once nextWake_ arrives.
     * far_ holds the timed warps made ready more than kFarCycles
     * ahead (memory waits), and farWake_ their earliest readyAt_:
     * promoteTimed() scans them only once farWake_ arrives.
     * A wait is charged as one interval, [chargeFrom_, end), to its
     * stallReason_, when the warp becomes due or its wait otherwise
     * ends. The only per-cycle charges are the idle counters and the
     * due memory warps held at the blocking TLB's gate (tlbGated_);
     * chargeSkipped() repeats the last tick's.
     * drainWaiting_ holds the warps bounced off the MMU's miss batch
     * until the drain listener readies them.
     */
    static constexpr Cycle kFarCycles = 64;
    std::uint64_t live_ = 0;
    std::uint64_t due_ = 0;
    std::uint64_t memNext_ = 0;
    std::uint64_t timed_ = 0;
    std::uint64_t far_ = 0;
    std::array<Cycle, 64> readyAt_{};
    /** Cause each slot's current wait is attributed to. */
    std::array<StallReason, 64> stallReason_{};
    /** First cycle of each slot's wait not yet charged. */
    std::array<Cycle, 64> chargeFrom_{};
    Cycle nextWake_ = kCycleNever;
    Cycle farWake_ = kCycleNever;
    std::uint64_t drainWaiting_ = 0;
    std::uint64_t tlbGated_ = 0;
    bool chargeTlbIdle_ = false;
    bool chargeMemBlocked_ = false;
    /** The last tick retired nothing and either issued nothing or
     *  left no warp due with nextWake_ two or more cycles ahead:
     *  runCycleLoop may put the core to sleep. */
    bool quiescent_ = false;

    Counter instrs_;
    Counter aluInstrs_;
    Counter branchInstrs_;
    Counter divergentBranches_;
    Counter idleCycles_;
    Counter tlbIdleCycles_;
    Counter blocksCompleted_;
    /** Only SimtCore reports it. */
    Counter memBlockedCycles_;
};

inline void
WarpSlotCore::makeTimed(int wid, Cycle ready)
{
    const std::uint64_t bit = std::uint64_t(1) << wid;
    due_ &= ~bit;
    timed_ |= bit;
    far_ &= ~bit;
    if (ready > eq_.now() + kFarCycles) {
        far_ |= bit;
        farWake_ = std::min(farWake_, ready);
    }
    readyAt_[static_cast<std::size_t>(wid)] = ready;
    nextWake_ = std::min(nextWake_, ready);
}

inline void
WarpSlotCore::chargeWait(int wid, Cycle end)
{
    Cycle &from = chargeFrom_[static_cast<std::size_t>(wid)];
    if (end > from) {
        stalls_.attribute(wid, stallReason_[static_cast<std::size_t>(wid)],
                          end - from);
        from = end;
    }
}

inline std::uint64_t
WarpSlotCore::promoteTimed(Cycle now)
{
    // Promote the warps of @p set whose ready cycle has passed; the
    // earliest ready cycle left in it is returned.
    std::uint64_t promoted = 0;
    auto scan = [&](std::uint64_t set) {
        Cycle wake = kCycleNever;
        for (std::uint64_t m = set; m != 0; m &= m - 1) {
            const int wid = std::countr_zero(m);
            const Cycle ready = readyAt_[static_cast<std::size_t>(wid)];
            if (ready > now)
                wake = std::min(wake, ready);
            else
                promoted |= std::uint64_t(1) << wid;
        }
        return wake;
    };
    const Cycle near = scan(timed_ & ~far_);
    if (now >= farWake_) {
        farWake_ = scan(far_);
        far_ &= ~promoted;
    }
    nextWake_ = std::min(near, farWake_);
    timed_ &= ~promoted;
    due_ |= promoted;
    // Every cycle from the issue to now stalled on the same cause.
    for (std::uint64_t m = promoted; m != 0; m &= m - 1)
        chargeWait(std::countr_zero(m), now);
    return promoted;
}

inline std::uint64_t
WarpSlotCore::gateMemory()
{
    // Waiting and timed warps are charged as intervals (chargeWait);
    // the blocking TLB's gate is the one stall charged per cycle.
    const std::uint64_t mem = due_ & memNext_;
    tlbGated_ = mem != 0 && !mmu_.memAvailable() ? mem : 0;
    for (std::uint64_t m = tlbGated_; m != 0; m &= m - 1)
        stalls_.attribute(std::countr_zero(m), StallReason::TlbMiss);
    return mem;
}

inline void
WarpSlotCore::endTick(Cycle now, unsigned issued, bool retired,
                      std::uint64_t ready, std::uint64_t held)
{
    if (issued == 0 && live_ != 0) {
        idleCycles_.inc();
        chargeTlbIdle_ = mmu_.missOutstanding();
        if (chargeTlbIdle_)
            tlbIdleCycles_.inc();
        chargeMemBlocked_ = held != 0;
        if (chargeMemBlocked_)
            memBlockedCycles_.inc();
    }

    // A quiescent tick only charged attribution: nothing issued or
    // retired and no warp was ready, so the issue order was never
    // consulted. The gates hold until a timer or an event wakes the
    // core, so every following tick charges the same cells until
    // wakeHint() arrives or a block is launched - so the core may
    // sleep.
    quiescent_ = issued == 0 && !retired && ready == 0;
    // A tick that issued and left no warp due sleeps at once when the
    // next tick would be idle: it takes over that idle tick's charges
    // (no gate, no blocked warp, the TLB-idle poll) for
    // chargeSkipped() to repeat.
    if (issued > 0 && !retired && due_ == 0 && nextWake_ > now + 1) {
        tlbGated_ = 0;
        chargeMemBlocked_ = false;
        chargeTlbIdle_ = mmu_.missOutstanding();
        quiescent_ = true;
    }
}

} // namespace gpummu

#endif // GPU_WARP_SLOT_CORE_HH
