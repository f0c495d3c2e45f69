#include "gpu/simt_core.hh"

#include <algorithm>
#include <bit>

#include "gpu/issue.hh"
#include "trace/memtrace.hh"
#include "trace/trace.hh"

namespace gpummu {

SimtCore::SimtCore(int core_id, const CoreConfig &cfg,
                   const LaunchParams &launch, AddressSpace &as,
                   MemorySystem &mem, EventQueue &eq)
    : WarpSlotCore(core_id, cfg, launch, as, mem, eq)
{
    if (cfg.numWarpSlots < warpsPerBlock()) {
        GPUMMU_FATAL("SimtCore: numWarpSlots (", cfg.numWarpSlots,
                     ") must hold the ", warpsPerBlock(),
                     " warps of one block (threadsPerBlock ",
                     launch.threadsPerBlock, ")");
    }
    warps_.resize(cfg.numWarpSlots);
    blocks_.resize(cfg.numWarpSlots / warpsPerBlock());

    // Default scheduler; presets usually replace it.
    setScheduler(std::make_unique<LooseRoundRobin>(cfg.numWarpSlots));
}

void
SimtCore::setScheduler(std::unique_ptr<WarpScheduler> sched)
{
    sched_ = std::move(sched);
    memStage_.setScheduler(sched_.get());
    // Route cache and TLB victims into the scheduler's VTAs.
    l1_.setEvictionListener([this](PhysAddr line, int warp) {
        sched_->onL1Eviction(line, warp);
    });
    mmu_.tlb().setEvictionListener([this](Vpn vpn, int warp) {
        sched_->onTlbEviction(vpn, warp);
    });
}

bool
SimtCore::canAcceptBlock() const
{
    return cfg_.numWarpSlots - static_cast<unsigned>(std::popcount(live_)) >=
               warpsPerBlock() &&
           residentBlocks_ < blocks_.size();
}

void
SimtCore::launchBlock(unsigned global_block_id)
{
    GPUMMU_ASSERT(canAcceptBlock());
    auto blk_it = std::find_if(blocks_.begin(), blocks_.end(),
                               [](const BlockThreads &b) {
                                   return !b.valid;
                               });
    const int slot = static_cast<int>(blk_it - blocks_.begin());
    startBlock(*blk_it, global_block_id);
    ++residentBlocks_;

    const LaneMask full =
        kWarpWidth == 64 ? ~LaneMask(0)
                         : ((LaneMask(1) << kWarpWidth) - 1);
    unsigned assigned = 0;
    for (std::size_t wid = 0;
         wid < warps_.size() && assigned < warpsPerBlock(); ++wid) {
        const std::uint64_t bit = std::uint64_t(1) << wid;
        if (live_ & bit)
            continue;
        Warp &w = warps_[wid];
        live_ |= bit;
        w.blockSlot = slot;
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            w.laneThread[lane] =
                static_cast<int>(assigned * kWarpWidth + lane);
        }
        w.stack.reset(0, full);
        due_ |= bit;
        classify(static_cast<int>(wid));
        ++assigned;
    }
    GPUMMU_ASSERT(assigned == warpsPerBlock());
}

void
SimtCore::classify(int wid)
{
    Warp &w = warps_[static_cast<std::size_t>(wid)];
    w.stack.reconverge();
    w.next = nullptr;
    if (!w.stack.empty()) {
        const auto &top = w.stack.top();
        const auto &bb = launch_.program->block(top.block);
        GPUMMU_ASSERT(top.instIdx < static_cast<int>(bb.instrs.size()));
        w.next = &bb.instrs[static_cast<std::size_t>(top.instIdx)];
    }
    const std::uint64_t bit = std::uint64_t(1) << wid;
    noNext_ &= ~bit;
    memNext_ &= ~bit;
    if (w.next == nullptr)
        noNext_ |= bit;
    else if (w.next->op == Opcode::Load || w.next->op == Opcode::Store)
        memNext_ |= bit;
}

void
SimtCore::noteBlockEntry(Warp &w)
{
    auto &top = w.stack.top();
    if (top.instIdx != 0 || top.entered)
        return;
    top.entered = true;
    auto &blk = blocks_[static_cast<std::size_t>(w.blockSlot)];
    std::uint32_t *row =
        blk.visits.data() +
        static_cast<std::size_t>(top.block) * launch_.threadsPerBlock;
    for (LaneMask m = top.mask; m != 0; m &= m - 1)
        ++row[w.laneThread[static_cast<std::size_t>(std::countr_zero(m))]];
}

void
SimtCore::executeBranch(Warp &w, const Instruction &in)
{
    const auto top = w.stack.top(); // copy: branch() rewrites it
    LaneMask taken = 0;
    LaneMask fall = 0;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        const LaneMask bit = LaneMask(1) << lane;
        if (!(top.mask & bit))
            continue;
        if (launch_.program->genCond(in.condGen, threadAt(w, lane)))
            taken |= bit;
        else
            fall |= bit;
    }
    branchInstrs_.inc();
    if (memtrace_ != nullptr && in.condGen >= 0) {
        const auto &blk =
            blocks_[static_cast<std::size_t>(w.blockSlot)];
        memtrace_->recordBranch(blk.globalId,
                                threadAt(w, 0).warpInBlock,
                                in.condGen, top.mask, taken);
    }
    if (w.stack.branch(taken, fall, in.takenBlock, in.fallBlock,
                       in.reconvBlock)) {
        divergentBranches_.inc();
    }
}

void
SimtCore::executeExit(int wid, Warp &w)
{
    const LaneMask mask = w.stack.top().mask;
    auto &blk = blocks_[static_cast<std::size_t>(w.blockSlot)];
    const unsigned exiting = static_cast<unsigned>(popcount64(mask));
    GPUMMU_ASSERT(blk.threadsLive >= exiting);
    blk.threadsLive -= exiting;
    w.stack.clearLanes(mask);
    // Lanes left behind keep the warp due on its next instruction.
    classify(wid);
    if (w.next == nullptr)
        retireWarp(wid);
    if (blk.threadsLive == 0) {
        blocksCompleted_.inc();
        blk.valid = false;
        --residentBlocks_;
    }
}

void
SimtCore::retireWarp(int wid)
{
    const std::uint64_t bit = std::uint64_t(1) << wid;
    GPUMMU_ASSERT(live_ & bit);
    live_ &= ~bit;
    due_ &= ~bit;
    sched_->onWarpReset(wid);
    GPUMMU_ASSERT(live_ != 0 || sched_->memGate() == ~std::uint64_t(0),
                  "an empty core's scheduler still gates memory");
}

void
SimtCore::issueWarp(int wid, Cycle now)
{
    Warp &w = warps_[static_cast<std::size_t>(wid)];
    const Instruction *in = w.next;
    GPUMMU_ASSERT(in != nullptr);
    noteBlockEntry(w);
    // ALU latency and branch pipelining are execution, not stalls.
    StallReason &reason = stallReason_[static_cast<std::size_t>(wid)];
    reason = StallReason::None;
    chargeFrom_[static_cast<std::size_t>(wid)] = now + 1;

    auto &top = w.stack.top();
    switch (in->op) {
      case Opcode::Alu:
        instrs_.inc();
        aluInstrs_.inc();
        ++top.instIdx;
        makeTimed(wid, now + cfg_.aluLatency);
        return;

      case Opcode::Branch:
        instrs_.inc();
        executeBranch(w, *in);
        makeTimed(wid, now + 1);
        return;

      case Opcode::Exit:
        // A finished warp retires out of due_.
        instrs_.inc();
        executeExit(wid, w);
        return;

      case Opcode::Load:
      case Opcode::Store: {
        // Generate lane addresses once per dynamic instruction; a
        // hit-under-miss bounce must not re-roll the RNG streams.
        if (!w.hasPendingAddrs) {
            w.pendingAddrs.clear();
            const LaneMask mask = top.mask;
            for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
                if (mask & (LaneMask(1) << lane)) {
                    w.pendingAddrs.push_back(launch_.program->genAddr(
                        in->addrGen, threadAt(w, lane)));
                }
            }
            w.hasPendingAddrs = true;
            if (memtrace_ != nullptr) {
                // Capture at generation time (not per bounce) so the
                // trace holds one record per dynamic instruction.
                const auto &blk =
                    blocks_[static_cast<std::size_t>(w.blockSlot)];
                memtrace_->recordAccess(
                    now, coreId_, blk.globalId,
                    threadAt(w, 0).warpInBlock,
                    in->op == Opcode::Store, top.mask,
                    w.pendingAddrs);
            }
        }
        const bool is_store = in->op == Opcode::Store;
        due_ &= ~(std::uint64_t(1) << wid);
        auto result = memStage_.issue(
            wid, is_store, w.pendingAddrs, now,
            [this, wid](Cycle ready) {
                makeTimed(wid, ready);
                eq_.postWake(static_cast<std::uint32_t>(coreId_));
            });
        if (result == MemIssueResult::BlockedTlbBusy) {
            // Swapped out: retry this instruction after the MMU
            // drains. The PC was not advanced.
            reason = StallReason::WalkerStructural;
            drainWaiting_ |= std::uint64_t(1) << wid;
            return;
        }
        instrs_.inc();
        w.hasPendingAddrs = false;
        ++w.stack.top().instIdx;
        // Whether the completion already fired (all-hit, readyAt in
        // the future) or is pending (miss path, WaitingMem), the wait
        // ahead is charged to the instruction's dominant cause.
        reason = memStage_.lastIssueReason();
        return;
      }
    }
    GPUMMU_PANIC("unhandled opcode");
}

void
SimtCore::tick(Cycle now)
{
    // Nothing resident: a no-op, so repeats are free.
    quiescent_ = live_ == 0;
    if (live_ == 0)
        return;
    sched_->tick(now);
    if (now >= nextWake_) {
        for (std::uint64_t m = promoteTimed(now); m != 0; m &= m - 1)
            classify(std::countr_zero(m));
    }

    // The due warps with no instruction left retire. Due memory warps
    // wait at the blocking TLB's gate or the scheduler's throttle.
    // ALU latency and the scheduler's own throttle stay unattributed,
    // which keeps per-warp totals below the run's cycle count.
    const std::uint64_t done = due_ & noNext_;
    const std::uint64_t mem = gateMemory();
    auto retire = [this](int wid) { retireWarp(wid); };
    const std::uint64_t held =
        mem & ~retireAndGate(*sched_, done, mem & ~tlbGated_, retire);
    const std::uint64_t ready = due_ & ~held;

    const unsigned issued =
        issuePass(*sched_, ready, mem, cfg_.issueWidth,
                  [this, now](int wid) { issueWarp(wid, now); });
    endTick(now, issued, done != 0, ready, held);
}

void
SimtCore::regStats(StatRegistry &reg, const std::string &prefix)
{
    WarpSlotCore::regStats(reg, prefix);
    sched_->regStats(reg, prefix + ".sched");
    reg.addCounter(prefix + ".mem_blocked_cycles", &memBlockedCycles_);
}

} // namespace gpummu
