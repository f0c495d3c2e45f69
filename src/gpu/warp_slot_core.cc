#include "gpu/warp_slot_core.hh"

#include <algorithm>
#include <bit>

namespace gpummu {

WarpSlotCore::WarpSlotCore(int core_id, const CoreConfig &cfg,
                           const LaunchParams &launch, AddressSpace &as,
                           MemorySystem &mem, EventQueue &eq)
    : coreId_(core_id), cfg_(cfg), launch_(launch), eq_(eq),
      l1_(cfg.l1, mem), mmu_(cfg.mmu, as, mem, eq),
      memStage_(mmu_, l1_, eq)
{
    GPUMMU_ASSERT(launch.program != nullptr);
    GPUMMU_ASSERT(launch.threadsPerBlock % kWarpWidth == 0,
                  "threadsPerBlock must be a warp multiple");
    GPUMMU_ASSERT(cfg.numWarpSlots <= 64 && cfg.issueWidth > 0);

    // The miss batch retired: bounced warps retry next cycle, and
    // this cycle's tick must re-poll the TLB gate (memAvailable) and
    // the TLB-idle charge (missOutstanding), so wake now.
    mmu_.setDrainListener([this]() {
        for (std::uint64_t m = drainWaiting_; m != 0; m &= m - 1) {
            makeTimed(std::countr_zero(m), eq_.now() + 1);
        }
        drainWaiting_ = 0;
        nextWake_ = std::min(nextWake_, eq_.now());
        eq_.postWake(static_cast<std::uint32_t>(coreId_));
    });
}

void
WarpSlotCore::setTraceSink(TraceSink *sink)
{
    l1_.setTraceSink(sink, coreId_);
    mmu_.setTraceSink(sink, coreId_);
    memStage_.setTraceSink(sink, coreId_);
}

void
WarpSlotCore::setHeatProfiler(HeatProfiler *heat)
{
    mmu_.setHeatProfiler(heat, coreId_);
    memStage_.setHeatProfiler(heat);
}

void
WarpSlotCore::setSpanTracker(SpanTracker *spans)
{
    mmu_.setSpanTracker(spans, coreId_);
    memStage_.setSpanTracker(spans, coreId_);
}

unsigned
WarpSlotCore::warpsPerBlock() const
{
    return launch_.threadsPerBlock / kWarpWidth;
}

void
WarpSlotCore::startBlock(BlockThreads &blk,
                         unsigned global_block_id) const
{
    const unsigned tpb = launch_.threadsPerBlock;
    blk.valid = true;
    blk.globalId = global_block_id;
    blk.threadsLive = tpb;
    blk.threads.clear();
    blk.threads.reserve(tpb);
    const unsigned num_blocks =
        static_cast<unsigned>(launch_.program->numBlocks());
    blk.visits.assign(std::size_t(num_blocks) * tpb, 0);
    for (unsigned t = 0; t < tpb; ++t) {
        ThreadCtx ctx(static_cast<int>(global_block_id * tpb + t),
                      static_cast<int>(global_block_id),
                      static_cast<int>(t), kWarpWidth, launch_.seed);
        ctx.bindVisits(blk.visits.data() + t, tpb, num_blocks);
        blk.threads.push_back(std::move(ctx));
    }
}

void
WarpSlotCore::chargeSkipped(Cycle now, Cycle n)
{
    if (live_ == 0)
        return;
    // Before nextTimer(), so the timer only counts cycles.
    tickTimer(now + n);
    // Only called while asleep after a quiescent tick, whose
    // per-cycle charges every skipped cycle repeats.
    for (std::uint64_t m = tlbGated_; m != 0; m &= m - 1)
        stalls_.attribute(std::countr_zero(m), StallReason::TlbMiss, n);
    idleCycles_.inc(n);
    if (chargeTlbIdle_)
        tlbIdleCycles_.inc(n);
    if (chargeMemBlocked_)
        memBlockedCycles_.inc(n);
}

void
WarpSlotCore::flushDeferredCharges()
{
    // Settle every open wait through the current cycle, which the
    // caller has accounted in full.
    for (std::uint64_t m = live_ & ~due_; m != 0; m &= m - 1)
        chargeWait(std::countr_zero(m), eq_.now() + 1);
}

void
WarpSlotCore::regStats(StatRegistry &reg, const std::string &prefix)
{
    l1_.regStats(reg, prefix + ".l1");
    mmu_.regStats(reg, prefix + ".mmu");
    memStage_.regStats(reg, prefix + ".mem");
    reg.addCounter(prefix + ".instrs", &instrs_);
    reg.addCounter(prefix + ".alu_instrs", &aluInstrs_);
    reg.addCounter(prefix + ".branch_instrs", &branchInstrs_);
    reg.addCounter(prefix + ".divergent_branches", &divergentBranches_);
    reg.addCounter(prefix + ".idle_cycles", &idleCycles_);
    reg.addCounter(prefix + ".tlb_idle_cycles", &tlbIdleCycles_);
    reg.addCounter(prefix + ".blocks_completed", &blocksCompleted_);
    stalls_.regStats(reg, prefix);
}

} // namespace gpummu
