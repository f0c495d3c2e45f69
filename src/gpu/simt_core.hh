/**
 * @file
 * Shader core with per-warp SIMT reconvergence stacks.
 *
 * Models one of the paper's 30 SIMT cores: 48 warp slots of 32
 * threads, an in-order issue stage driven by a pluggable warp
 * scheduler, a single load/store unit feeding the MemoryStage, and a
 * per-core MMU (TLB + PTWs) beside the 32KB L1.
 *
 * Thread block compaction uses a different core (TbcCore) on the
 * same warp-slot machinery (gpu/warp_slot_core.hh).
 */

#ifndef GPU_SIMT_CORE_HH
#define GPU_SIMT_CORE_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "gpu/simt_stack.hh"
#include "gpu/warp_slot_core.hh"
#include "sched/warp_scheduler.hh"

namespace gpummu {

class SimtCore : public WarpSlotCore
{
  public:
    SimtCore(int core_id, const CoreConfig &cfg,
             const LaunchParams &launch, AddressSpace &as,
             MemorySystem &mem, EventQueue &eq);

    /** Install the warp scheduler (must precede the first tick). */
    void setScheduler(std::unique_ptr<WarpScheduler> sched);

    /** Route translation through a shared IOMMU (Section 2.2). */
    void setIommu(Iommu *iommu) { memStage_.setIommu(iommu); }

    /** Can another thread block be launched here right now? */
    bool canAcceptBlock() const override;

    /** Launch thread block @p global_block_id onto this core. */
    void launchBlock(unsigned global_block_id) override;

    /** Advance one cycle. */
    void tick(Cycle now) override;

    bool
    setMemTraceWriter(MemTraceWriter *writer) override
    {
        memtrace_ = writer;
        return true;
    }

    void regStats(StatRegistry &reg,
                  const std::string &prefix) override;

    std::uint64_t memInstructionsIssued() const
    {
        return memStage_.memInstructions();
    }

  private:
    void tickTimer(Cycle now) override { sched_->tick(now); }
    Cycle nextTimer() const override { return sched_->nextTick(); }

    struct Warp
    {
        int blockSlot = -1;
        /** Per-lane index into the block's thread array; -1 empty. */
        std::array<int, kWarpWidth> laneThread{};
        SimtStack stack;
        /**
         * The instruction the warp issues next (nullptr: none left),
         * set by classify() as the warp becomes due, so the stack
         * reconverges and the instruction is looked up once per PC.
         * It points into the program's instruction vectors.
         */
        const Instruction *next = nullptr;
        /**
         * Lane addresses generated for the current memory
         * instruction, kept across hit-under-miss bounces so the
         * per-thread RNG streams are consumed exactly once per
         * dynamic instruction.
         */
        std::vector<VirtAddr> pendingAddrs;
        bool hasPendingAddrs = false;
    };

    /** Warp @p wid becomes due: set Warp::next and its memNext_ and
     *  noNext_ bits. */
    void classify(int wid);

    /** Execute one instruction for warp @p wid. */
    void issueWarp(int wid, Cycle now);

    void executeBranch(Warp &w, const Instruction &in);
    void executeExit(int wid, Warp &w);
    void retireWarp(int wid);

    /** Bump block-entry visit counters when entering a block. */
    void noteBlockEntry(Warp &w);

    ThreadCtx &
    threadAt(const Warp &w, unsigned lane)
    {
        auto &blk = blocks_[static_cast<std::size_t>(w.blockSlot)];
        return blk.threads[static_cast<std::size_t>(
            w.laneThread[lane])];
    }

    std::unique_ptr<WarpScheduler> sched_;

    /** Observation-only capture sink; null when not capturing. */
    MemTraceWriter *memtrace_ = nullptr;

    std::vector<Warp> warps_;
    std::vector<BlockThreads> blocks_;
    unsigned residentBlocks_ = 0;
    /** The due warps with no instruction left (see classify()). */
    std::uint64_t noNext_ = 0;
};

} // namespace gpummu

#endif // GPU_SIMT_CORE_HH
