/**
 * @file
 * Shader core with per-warp SIMT reconvergence stacks.
 *
 * Models one of the paper's 30 SIMT cores: 48 warp slots of 32
 * threads, an in-order issue stage driven by a pluggable warp
 * scheduler, a single load/store unit feeding the MemoryStage, and a
 * per-core MMU (TLB + PTWs) beside the 32KB L1.
 *
 * Thread block compaction uses a different core (TbcCore) that shares
 * the MemoryStage and the issue pass (gpu/issue.hh).
 */

#ifndef GPU_SIMT_CORE_HH
#define GPU_SIMT_CORE_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpu/kernel.hh"
#include "gpu/memory_stage.hh"
#include "gpu/shader_core.hh"
#include "gpu/simt_stack.hh"
#include "mem/l1_cache.hh"
#include "mmu/mmu.hh"
#include "sched/warp_scheduler.hh"
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

class SimtCore : public ShaderCore
{
  public:
    SimtCore(int core_id, const CoreConfig &cfg,
             const LaunchParams &launch, AddressSpace &as,
             MemorySystem &mem, EventQueue &eq);

    SimtCore(const SimtCore &) = delete;
    SimtCore &operator=(const SimtCore &) = delete;

    /** Install the warp scheduler (must precede the first tick). */
    void setScheduler(std::unique_ptr<WarpScheduler> sched);

    /** Route translation through a shared IOMMU (Section 2.2). */
    void setIommu(Iommu *iommu) { memStage_.setIommu(iommu); }

    /** Warps per thread block for the configured launch. */
    unsigned warpsPerBlock() const;

    /** Can another thread block be launched here right now? */
    bool canAcceptBlock() const override;

    /** Launch thread block @p global_block_id onto this core. */
    void launchBlock(unsigned global_block_id) override;

    /** Advance one cycle. */
    void tick(Cycle now) override;

    bool lastTickQuiescent() const override { return quiescent_; }
    Cycle wakeHint() const override { return nextWake_; }
    void chargeSkipped(Cycle now, Cycle n) override;
    void flushDeferredCharges() override;

    /** True when no resident warps remain. */
    bool idle() const override { return liveWarps_ == 0; }

    Mmu &mmu() override { return mmu_; }
    L1Cache &l1() override { return l1_; }
    MemoryStage &memStage() override { return memStage_; }

    void setTraceSink(TraceSink *sink) override;
    void setHeatProfiler(HeatProfiler *heat) override;
    void setSpanTracker(SpanTracker *spans) override;

    bool
    setMemTraceWriter(MemTraceWriter *writer) override
    {
        memtrace_ = writer;
        return true;
    }
    WarpStallAccounting &stallAccounting() override { return stalls_; }

    void regStats(StatRegistry &reg,
                  const std::string &prefix) override;

    std::uint64_t instructionsIssued() const override
    {
        return instrs_.value();
    }
    std::uint64_t memInstructionsIssued() const
    {
        return memStage_.memInstructions();
    }
    std::uint64_t idleCycles() const override
    {
        return idleCycles_.value();
    }
    std::uint64_t blocksCompleted() const
    {
        return blocksCompleted_.value();
    }

  private:
    struct Warp
    {
        bool valid = false;
        int blockSlot = -1;
        /** Per-lane index into the block's thread array; -1 empty. */
        std::array<int, kWarpWidth> laneThread{};
        SimtStack stack;
        /**
         * nextInstr()'s answer (nullptr: no instruction left), so the
         * per-cycle scan and the issue pass reconverge the stack and
         * look the instruction up once per PC. It points into the
         * program's instruction vectors. Cleared only where the PC can
         * move: on entry to issueWarp() and in launchBlock().
         */
        std::optional<const Instruction *> next;
        /**
         * Lane addresses generated for the current memory
         * instruction, kept across hit-under-miss bounces so the
         * per-thread RNG streams are consumed exactly once per
         * dynamic instruction.
         */
        std::vector<VirtAddr> pendingAddrs;
        bool hasPendingAddrs = false;
        /** Cause the warp's current wait is attributed to. */
        StallReason stallReason = StallReason::None;
        /** First cycle of the wait not yet charged to stallReason. */
        Cycle chargeFrom = 0;
    };

    struct ResidentBlock
    {
        bool valid = false;
        unsigned globalId = 0;
        unsigned threadsLive = 0;
        std::vector<ThreadCtx> threads;
        std::vector<int> warpIds;
    };

    /** The instruction the warp would execute next, or nullptr;
     *  cached in Warp::next. */
    const Instruction *nextInstr(Warp &w);

    /** Execute one instruction for warp @p wid. */
    void issueWarp(int wid, Cycle now);

    void executeBranch(Warp &w, const Instruction &in);
    void executeExit(int wid, Warp &w);
    void retireWarp(int wid, Warp &w);

    /** Bump block-entry visit counters when entering a block. */
    void noteBlockEntry(Warp &w);

    /** Warp @p wid turns Ready at @p ready: park it in timed_. */
    void makeTimed(int wid, Cycle ready);
    /** Move timed warps whose readyAt_ has passed into due_. */
    void promoteTimed(Cycle now);
    /** Charge warp @p wid's open wait up to (excluding) @p end. */
    void chargeWait(int wid, Warp &w, Cycle end);

    ThreadCtx &
    threadAt(const Warp &w, unsigned lane)
    {
        auto &blk = blocks_[static_cast<std::size_t>(w.blockSlot)];
        return blk.threads[static_cast<std::size_t>(
            w.laneThread[lane])];
    }

    int coreId_;
    CoreConfig cfg_;
    LaunchParams launch_;
    EventQueue &eq_;

    L1Cache l1_;
    Mmu mmu_;
    MemoryStage memStage_;
    std::unique_ptr<WarpScheduler> sched_;

    /** Observation-only capture sink; null when not capturing. */
    MemTraceWriter *memtrace_ = nullptr;

    std::vector<Warp> warps_;
    std::vector<ResidentBlock> blocks_;
    unsigned liveWarps_ = 0;
    WarpStallAccounting stalls_;
    /** tick() scratch: issuable-warp ids. Member so the per-cycle
     *  path does not allocate (tick dominates the profile). */
    std::vector<int> issuableScratch_;

    /**
     * Warp readiness as masks over warp slots (so at most 64). A
     * Ready warp is *due* once its readyAt_ cycle has passed and
     * *timed* before that; nextWake_ is the earliest readyAt_ in
     * timed_. readyAt_ is one array per core, indexed by warp slot
     * and valid for timed warps, so promoteTimed() reads contiguous
     * cycles and touches a Warp only to charge one it promotes. A
     * completion callback moves a waiting warp into timed_. tick()
     * visits only due warps and scans timed_ once nextWake_ arrives.
     * far_ holds the timed warps made ready more than kFarCycles
     * ahead (memory waits), and farWake_ their earliest readyAt_:
     * promoteTimed() scans them only once farWake_ arrives.
     * A wait is charged as one interval, [Warp::chargeFrom, due), to
     * its stallReason. The only per-cycle charges are the idle
     * counters and the due memory warps held at the blocking TLB's
     * gate (tlbGated_); chargeSkipped() repeats the last tick's.
     * drainWaiting_ holds the warps bounced off the MMU's miss batch
     * until the drain listener readies them.
     */
    static constexpr Cycle kFarCycles = 64;
    std::uint64_t due_ = 0;
    std::uint64_t timed_ = 0;
    std::uint64_t far_ = 0;
    std::array<Cycle, 64> readyAt_{};
    Cycle nextWake_ = kCycleNever;
    Cycle farWake_ = kCycleNever;
    std::uint64_t drainWaiting_ = 0;
    std::uint64_t tlbGated_ = 0;
    bool chargeTlbIdle_ = false;
    bool chargeMemBlocked_ = false;
    /** With a pure scheduler, the last tick retired nothing and
     *  either issued nothing or left no warp due with nextWake_ two
     *  or more cycles ahead: runCycleLoop may put the core to sleep. */
    bool quiescent_ = false;
    unsigned residentBlocks_ = 0;

    Counter instrs_;
    Counter aluInstrs_;
    Counter branchInstrs_;
    Counter divergentBranches_;
    Counter idleCycles_;
    Counter tlbIdleCycles_;
    Counter blocksCompleted_;
    Counter memBlockedCycles_;
};

} // namespace gpummu

#endif // GPU_SIMT_CORE_HH
