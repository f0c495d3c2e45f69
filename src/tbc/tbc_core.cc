#include "tbc/tbc_core.hh"

#include <algorithm>
#include <bit>

#include "gpu/issue.hh"

namespace gpummu {

namespace {

/** The @p n warp slots from @p base up, as a mask. */
std::uint64_t
slotRange(int base, unsigned n)
{
    return ((std::uint64_t(1) << n) - 1) << base;
}

} // namespace

TbcCore::TbcCore(int core_id, const CoreConfig &cfg,
                 const TbcConfig &tbc, const LaunchParams &launch,
                 AddressSpace &as, MemorySystem &mem, EventQueue &eq)
    : WarpSlotCore(core_id, cfg, launch, as, mem, eq), tbcCfg_(tbc),
      cpm_(tbc.cpm, cfg.numWarpSlots), lrr_(cfg.numWarpSlots),
      warpOccupancy_(1, 33)
{
    GPUMMU_ASSERT(launch.threadsPerBlock <= kMaxBlockThreads);
    if (cfg.numWarpSlots < warpsPerBlock()) {
        GPUMMU_FATAL("TbcCore: numWarpSlots (", cfg.numWarpSlots,
                     ") is below the ", warpsPerBlock(),
                     " warps of one block (threadsPerBlock ",
                     launch.threadsPerBlock, "); no block fits");
    }
    warps_.resize(cfg.numWarpSlots);
    blocks_.resize(cfg.numWarpSlots / warpsPerBlock());

    // CPM learning: every TLB hit reports the entry's recent original
    // warps; saturating counters track which warps share PTEs.
    memStage_.setTlbHitHistoryHook(
        [this](int warp, Vpn vpn, const std::array<int, 4> &hist,
               unsigned used) {
            (void)vpn;
            for (unsigned i = 0; i < used && i < hist.size(); ++i)
                cpm_.bump(warp, hist[i]);
        });
}

bool
TbcCore::canAcceptBlock() const
{
    return std::any_of(blocks_.begin(), blocks_.end(),
                       [](const TbcBlock &b) { return !b.valid; });
}

void
TbcCore::launchBlock(unsigned global_block_id)
{
    auto it = std::find_if(blocks_.begin(), blocks_.end(),
                           [](const TbcBlock &b) { return !b.valid; });
    GPUMMU_ASSERT(it != blocks_.end());
    TbcBlock &blk = *it;
    const int slot = static_cast<int>(it - blocks_.begin());
    startBlock(blk, global_block_id);
    blk.warpBase = slot * static_cast<int>(warpsPerBlock());

    BlockMask full;
    for (unsigned t = 0; t < launch_.threadsPerBlock; ++t)
        full.set(t);
    blk.stack.reset(0, full);
    blk.numWarps = 0;
    // De-phase blocks so their barrier bursts do not convoy: blocks
    // launched in the same cycle would otherwise stay phase-locked,
    // hammering the memory system in lockstep.
    const Cycle phase = static_cast<Cycle>(coreId_) * 61 +
                        static_cast<Cycle>(slot) * 173;
    activateTop(blk, phase);
}

void
TbcCore::activateTop(TbcBlock &blk, Cycle now)
{
    live_ &= ~slotRange(blk.warpBase, blk.numWarps);
    blk.numWarps = 0;
    blk.stack.reconverge();
    if (blk.stack.empty() || blk.threadsLive == 0) {
        blk.valid = false;
        blocksCompleted_.inc();
        return;
    }

    const auto &top = blk.stack.top();
    compactions_.inc();
    auto packed = compactThreads(top.mask, launch_.threadsPerBlock,
                                 tbcCfg_.tlbAware ? &cpm_ : nullptr,
                                 blk.warpBase);
    GPUMMU_ASSERT(packed.size() <= warpsPerBlock(),
                  "compaction formed more dynamic warps than the "
                  "block's warp slots");
    for (const auto &cw : packed) {
        const int wid = blk.warpBase + static_cast<int>(blk.numWarps);
        DynWarp &dw = warps_[static_cast<std::size_t>(wid)];
        dw.laneThread = cw.laneThread;
        dw.instIdx = 0;
        dw.hasPendingAddrs = false;
        dw.pendingLoads = 0;
        dw.loadsReadyAt = 0;
        dw.waitingAtTerminator = false;
        for (int t : cw.laneThread) {
            if (t >= 0) {
                dw.originRep =
                    blk.warpBase + t / static_cast<int>(kWarpWidth);
                break;
            }
        }
        stallReason_[static_cast<std::size_t>(wid)] = StallReason::None;
        live_ |= std::uint64_t(1) << wid;
        // Stagger release through fetch/decode so a block-wide
        // barrier does not dump every warp's memory burst into the
        // same cycle.
        makeTimed(wid, now + 1 + 2 * static_cast<Cycle>(blk.numWarps));
        ++blk.numWarps;
        dynWarps_.inc();
        warpOccupancy_.sample(cw.activeLanes());
    }
    blk.warpsDone = 0;
    blk.takenAcc.reset();
    blk.fallAcc.reset();
    blk.exitAcc.reset();

    // Block-entry bookkeeping: bump visit counters once per thread.
    std::uint32_t *row =
        blk.visits.data() +
        static_cast<std::size_t>(top.block) * launch_.threadsPerBlock;
    for (unsigned t = 0; t < launch_.threadsPerBlock; ++t) {
        if (top.mask.test(t))
            ++row[t];
    }
}

const Instruction &
TbcCore::currentInstr(const TbcBlock &blk, const DynWarp &w) const
{
    const auto &bb = launch_.program->block(blk.stack.top().block);
    GPUMMU_ASSERT(w.instIdx < static_cast<int>(bb.instrs.size()));
    return bb.instrs[static_cast<std::size_t>(w.instIdx)];
}

void
TbcCore::classify(int wid)
{
    const Instruction &in =
        currentInstr(blockOf(wid), warps_[static_cast<std::size_t>(wid)]);
    const std::uint64_t bit = std::uint64_t(1) << wid;
    if (in.op == Opcode::Load || in.op == Opcode::Store)
        memNext_ |= bit;
    else
        memNext_ &= ~bit;
}

void
TbcCore::resolveEntry(TbcBlock &blk, Cycle now)
{
    // Every warp's barrier wait ends this cycle.
    for (unsigned i = 0; i < blk.numWarps; ++i)
        chargeWait(blk.warpBase + static_cast<int>(i), now + 1);

    const auto &bb = launch_.program->block(blk.stack.top().block);
    const Instruction &term = bb.instrs.back();
    if (term.op == Opcode::Exit) {
        const unsigned exiting =
            static_cast<unsigned>(blk.exitAcc.count());
        GPUMMU_ASSERT(blk.threadsLive >= exiting);
        blk.threadsLive -= exiting;
        blk.stack.clearThreads(blk.exitAcc);
    } else {
        GPUMMU_ASSERT(term.op == Opcode::Branch);
        if (blk.stack.branch(blk.takenAcc, blk.fallAcc,
                             term.takenBlock, term.fallBlock,
                             term.reconvBlock)) {
            divergentBranches_.inc();
        }
    }
    activateTop(blk, now);
}

void
TbcCore::issueWarp(int wid, Cycle now)
{
    const auto s = static_cast<std::size_t>(wid);
    const std::uint64_t bit = std::uint64_t(1) << wid;
    TbcBlock &blk = blockOf(wid);
    DynWarp &w = warps_[s];
    const Instruction &in = currentInstr(blk, w);
    due_ &= ~bit;
    chargeFrom_[s] = now + 1;
    StallReason &reason = stallReason_[s];

    switch (in.op) {
      case Opcode::Alu:
        instrs_.inc();
        aluInstrs_.inc();
        ++w.instIdx;
        // Execution latency, not a stall.
        reason = StallReason::None;
        makeTimed(wid, now + cfg_.aluLatency);
        return;

      case Opcode::Branch:
      case Opcode::Exit:
        // The terminator waits for the warp's own loads first: the
        // last completion times the warp, and the wait keeps the
        // loads' cause.
        if (w.pendingLoads > 0) {
            w.waitingAtTerminator = true;
            return;
        }
        if (w.loadsReadyAt > now) {
            makeTimed(wid, w.loadsReadyAt);
            return;
        }
        instrs_.inc();
        if (in.op == Opcode::Branch)
            branchInstrs_.inc();
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            const int tid = w.laneThread[lane];
            if (tid < 0)
                continue;
            const auto t = static_cast<std::size_t>(tid);
            if (in.op == Opcode::Exit)
                blk.exitAcc.set(t);
            else if (launch_.program->genCond(in.condGen,
                                              blk.threads[t]))
                blk.takenAcc.set(t);
            else
                blk.fallAcc.set(t);
        }
        // Finished its path: wait for the block's other warps at the
        // block-wide reconvergence barrier.
        reason = StallReason::Reconvergence;
        if (++blk.warpsDone == blk.numWarps)
            resolveEntry(blk, now);
        return;

      case Opcode::Load:
      case Opcode::Store: {
        if (!w.hasPendingAddrs) {
            w.pendingAddrs.clear();
            for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
                const int tid = w.laneThread[lane];
                if (tid >= 0) {
                    w.pendingAddrs.push_back(launch_.program->genAddr(
                        in.addrGen,
                        blk.threads[static_cast<std::size_t>(tid)]));
                }
            }
            w.hasPendingAddrs = true;
        }
        const bool is_store = in.op == Opcode::Store;
        ++w.pendingLoads;
        auto result = memStage_.issue(
            w.originRep, is_store, w.pendingAddrs, now,
            [this, wid](Cycle ready) {
                DynWarp &ww = warps_[static_cast<std::size_t>(wid)];
                ww.loadsReadyAt = std::max(ww.loadsReadyAt, ready);
                GPUMMU_ASSERT(ww.pendingLoads > 0);
                if (--ww.pendingLoads == 0 && ww.waitingAtTerminator) {
                    ww.waitingAtTerminator = false;
                    makeTimed(wid,
                              std::max(ww.loadsReadyAt, eq_.now() + 1));
                    eq_.postWake(static_cast<std::uint32_t>(coreId_));
                }
            });
        if (result == MemIssueResult::BlockedTlbBusy) {
            // Retry this instruction after the MMU drains.
            GPUMMU_ASSERT(w.pendingLoads > 0);
            --w.pendingLoads;
            reason = StallReason::WalkerStructural;
            drainWaiting_ |= bit;
            return;
        }
        instrs_.inc();
        w.hasPendingAddrs = false;
        ++w.instIdx;
        // Waits on this entry's outstanding data are charged to the
        // worst cause among its fire-and-forget loads.
        reason = dominantStall(reason, memStage_.lastIssueReason());
        // Fire and forget: the warp keeps executing this entry and
        // synchronizes with its data at the terminator.
        makeTimed(wid, now + 2);
        return;
      }
    }
    GPUMMU_PANIC("unhandled opcode");
}

void
TbcCore::tick(Cycle now)
{
    quiescent_ = live_ == 0;
    if (live_ == 0)
        return;
    cpm_.tick(now);
    if (now >= nextWake_) {
        for (std::uint64_t m = promoteTimed(now); m != 0; m &= m - 1)
            classify(std::countr_zero(m));
    }
    // A dynamic warp ends at its terminator, so none is ever out of
    // instructions; slot order is (block, dynamic warp) order.
    const std::uint64_t mem = gateMemory();
    const std::uint64_t ready = due_ & ~tlbGated_;
    const unsigned issued =
        issuePass(lrr_, ready, mem, cfg_.issueWidth,
                  [this, now](int wid) { issueWarp(wid, now); });
    endTick(now, issued, false, ready, tlbGated_, true);
}

void
TbcCore::regStats(StatRegistry &reg, const std::string &prefix)
{
    WarpSlotCore::regStats(reg, prefix);
    cpm_.regStats(reg, prefix + ".cpm");
    reg.addCounter(prefix + ".compactions", &compactions_);
    reg.addCounter(prefix + ".dynamic_warps", &dynWarps_);
    reg.addHistogram(prefix + ".warp_occupancy", &warpOccupancy_);
}

} // namespace gpummu
