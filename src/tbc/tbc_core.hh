/**
 * @file
 * Shader core with thread block compaction (Fung & Aamodt HPCA 2011),
 * optionally TLB-aware (the paper's Section 8).
 *
 * Warps of a thread block synchronize at every divergent branch on a
 * block-wide reconvergence stack; the thread compactor then forms
 * dynamic warps from the threads on each path. The TLB-aware variant
 * consults the Common Page Matrix so that threads are only packed
 * with threads whose original warps have recently hit the same TLB
 * entries, trading a possible extra dynamic warp for much lower page
 * divergence.
 *
 * A block never has more dynamic warps than static ones (see
 * compactThreads()), so dynamic warp i of a block takes the block's
 * warp slot warpBase + i. The core then shares the SIMT core's
 * readiness masks, interval stall charging and sleep
 * (gpu/warp_slot_core.hh), and issues in loose round robin order over
 * those slots.
 */

#ifndef TBC_TBC_CORE_HH
#define TBC_TBC_CORE_HH

#include <vector>

#include "gpu/warp_slot_core.hh"
#include "sched/warp_scheduler.hh"
#include "tbc/block_stack.hh"
#include "tbc/cpm.hh"

namespace gpummu {

struct TbcConfig
{
    /** Use the Common Page Matrix admission rule. */
    bool tlbAware = false;
    CpmConfig cpm;
};

class TbcCore : public WarpSlotCore
{
  public:
    TbcCore(int core_id, const CoreConfig &cfg, const TbcConfig &tbc,
            const LaunchParams &launch, AddressSpace &as,
            MemorySystem &mem, EventQueue &eq);

    bool canAcceptBlock() const override;
    void launchBlock(unsigned global_block_id) override;
    void tick(Cycle now) override;

    std::uint64_t compactions() const { return compactions_.value(); }
    std::uint64_t dynamicWarpsFormed() const
    {
        return dynWarps_.value();
    }

    void regStats(StatRegistry &reg,
                  const std::string &prefix) override;

  private:
    void tickTimer(Cycle now) override { cpm_.tick(now); }
    Cycle nextTimer() const override { return cpm_.nextFlush(); }

    struct DynWarp
    {
        std::array<int, kWarpWidth> laneThread{};
        int instIdx = 0;
        /** Representative original warp (CPM row / L1 ownership). */
        int originRep = -1;
        std::vector<VirtAddr> pendingAddrs;
        bool hasPendingAddrs = false;
        /**
         * Loads issue fire-and-forget inside an entry (the warp
         * blocks on outstanding data only at the terminator, where
         * the block-wide barrier already waits). This keeps the
         * barrier critical path at max(load latencies) rather than
         * their sum. The last completion times a warp that waits at
         * its terminator.
         */
        unsigned pendingLoads = 0;
        Cycle loadsReadyAt = 0;
        bool waitingAtTerminator = false;
    };

    struct TbcBlock : BlockThreads
    {
        int warpBase = 0; ///< warp slot of dynamic (and static) warp 0
        BlockStack stack;
        /** Dynamic warps of the current entry, in the slots from
         *  warpBase up. */
        unsigned numWarps = 0;
        unsigned warpsDone = 0;
        BlockMask takenAcc;
        BlockMask fallAcc;
        BlockMask exitAcc;
    };

    /** Compact the stack top into dynamic warps and start them. */
    void activateTop(TbcBlock &blk, Cycle now);

    /** All dynamic warps reached the terminator: apply it. */
    void resolveEntry(TbcBlock &blk, Cycle now);

    /** Warp @p wid becomes due: set its memNext_ bit. */
    void classify(int wid);

    void issueWarp(int wid, Cycle now);

    TbcBlock &
    blockOf(int wid)
    {
        return blocks_[static_cast<std::size_t>(wid) / warpsPerBlock()];
    }

    const Instruction &currentInstr(const TbcBlock &blk,
                                    const DynWarp &w) const;

    TbcConfig tbcCfg_;
    CommonPageMatrix cpm_;
    LooseRoundRobin lrr_;

    /** Indexed by warp slot. */
    std::vector<DynWarp> warps_;
    std::vector<TbcBlock> blocks_;

    Counter compactions_;
    Counter dynWarps_;
    Histogram warpOccupancy_;
};

} // namespace gpummu

#endif // TBC_TBC_CORE_HH
