#include "tbc/tbc_core.hh"

#include <algorithm>

#include "trace/trace.hh"

namespace gpummu {

TbcCore::TbcCore(int core_id, const CoreConfig &cfg,
                 const TbcConfig &tbc, const LaunchParams &launch,
                 AddressSpace &as, MemorySystem &mem, EventQueue &eq)
    : coreId_(core_id), cfg_(cfg), tbcCfg_(tbc), launch_(launch),
      eq_(eq), l1_(cfg.l1, mem), mmu_(cfg.mmu, as, mem, eq),
      memStage_(mmu_, l1_, eq), cpm_(tbc.cpm, cfg.numWarpSlots),
      warpOccupancy_(1, 33)
{
    GPUMMU_ASSERT(launch.program != nullptr);
    GPUMMU_ASSERT(launch.threadsPerBlock % kWarpWidth == 0);
    GPUMMU_ASSERT(launch.threadsPerBlock <= kMaxBlockThreads);
    if (cfg.numWarpSlots < warpsPerBlock()) {
        GPUMMU_FATAL("TbcCore: numWarpSlots (", cfg.numWarpSlots,
                     ") is below the ", warpsPerBlock(),
                     " warps of one block (threadsPerBlock ",
                     launch.threadsPerBlock, "); no block fits");
    }
    GPUMMU_ASSERT(cfg.issueWidth > 0);
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

    // The miss batch retired: bounced warps retry next cycle. They are
    // not done, so their blocks cannot recompact before this fires.
    mmu_.setDrainListener([this]() {
        for (TbcBlock &blk : blocks_) {
            for (DynWarp &w : blk.warps) {
                if (w.state == WarpState::WaitingTlbDrain) {
                    w.state = WarpState::Ready;
                    w.readyAt = eq_.now() + 1;
                }
            }
        }
    });
}

void
TbcCore::setTraceSink(TraceSink *sink)
{
    l1_.setTraceSink(sink, coreId_);
    mmu_.setTraceSink(sink, coreId_);
    memStage_.setTraceSink(sink, coreId_);
}

void
TbcCore::setHeatProfiler(HeatProfiler *heat)
{
    mmu_.setHeatProfiler(heat, coreId_);
    memStage_.setHeatProfiler(heat);
}

void
TbcCore::setSpanTracker(SpanTracker *spans)
{
    mmu_.setSpanTracker(spans, coreId_);
    memStage_.setSpanTracker(spans, coreId_);
}

unsigned
TbcCore::warpsPerBlock() const
{
    return launch_.threadsPerBlock / kWarpWidth;
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

    blk.valid = true;
    blk.globalId = global_block_id;
    blk.threadsLive = launch_.threadsPerBlock;
    blk.warpBase = slot * static_cast<int>(warpsPerBlock());
    blk.threads.clear();
    blk.threads.reserve(launch_.threadsPerBlock);
    const unsigned tpb = launch_.threadsPerBlock;
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

    BlockMask full;
    for (unsigned t = 0; t < tpb; ++t)
        full.set(t);
    blk.stack.reset(0, full);
    blk.warps.clear();
    blk.warpsDone = 0;
    blk.takenAcc.reset();
    blk.fallAcc.reset();
    blk.exitAcc.reset();
    ++liveBlocks_;
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
    blk.stack.reconverge();
    if (blk.stack.empty() || blk.threadsLive == 0) {
        blk.valid = false;
        blocksCompleted_.inc();
        GPUMMU_ASSERT(liveBlocks_ > 0);
        --liveBlocks_;
        return;
    }

    const auto &top = blk.stack.top();
    compactions_.inc();
    auto packed = compactThreads(top.mask, launch_.threadsPerBlock,
                                 tbcCfg_.tlbAware ? &cpm_ : nullptr,
                                 blk.warpBase);
    blk.warps.clear();
    blk.warps.reserve(packed.size());
    for (const auto &cw : packed) {
        DynWarp dw;
        dw.laneThread = cw.laneThread;
        dw.instIdx = 0;
        dw.state = WarpState::Ready;
        // Stagger release through fetch/decode so a block-wide
        // barrier does not dump every warp's memory burst into the
        // same cycle.
        dw.readyAt = now + 1 + 2 * static_cast<Cycle>(blk.warps.size());
        dw.done = false;
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
        dynWarps_.inc();
        warpOccupancy_.sample(cw.activeLanes());
        blk.warps.push_back(std::move(dw));
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

const Instruction *
TbcCore::currentInstr(const TbcBlock &blk, const DynWarp &w) const
{
    const auto &bb = launch_.program->block(blk.stack.top().block);
    GPUMMU_ASSERT(w.instIdx < static_cast<int>(bb.instrs.size()));
    return &bb.instrs[static_cast<std::size_t>(w.instIdx)];
}

void
TbcCore::resolveEntry(int blk_slot, Cycle now)
{
    TbcBlock &blk = blocks_[static_cast<std::size_t>(blk_slot)];
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
TbcCore::issueWarp(int blk_slot, int warp_idx, Cycle now)
{
    TbcBlock &blk = blocks_[static_cast<std::size_t>(blk_slot)];
    DynWarp &w = blk.warps[static_cast<std::size_t>(warp_idx)];
    const Instruction *in = currentInstr(blk, w);

    switch (in->op) {
      case Opcode::Alu:
        instrs_.inc();
        aluInstrs_.inc();
        ++w.instIdx;
        w.readyAt = now + cfg_.aluLatency;
        // Execution latency, not a stall.
        w.stallReason = StallReason::None;
        return;

      case Opcode::Branch: {
        if (w.pendingLoads > 0) {
            // Wait for this warp's outstanding loads before the
            // block-wide sync point.
            w.waitingAtTerminator = true;
            w.state = WarpState::WaitingMem;
            return;
        }
        if (w.loadsReadyAt > now) {
            w.readyAt = w.loadsReadyAt;
            return;
        }
        instrs_.inc();
        branchInstrs_.inc();
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            const int tid = w.laneThread[lane];
            if (tid < 0)
                continue;
            if (launch_.program->genCond(in->condGen,
                                         threadOf(blk, tid))) {
                blk.takenAcc.set(static_cast<std::size_t>(tid));
            } else {
                blk.fallAcc.set(static_cast<std::size_t>(tid));
            }
        }
        w.done = true;
        w.readyAt = now + 1;
        if (++blk.warpsDone == blk.warps.size())
            resolveEntry(blk_slot, now);
        return;
      }

      case Opcode::Exit: {
        if (w.pendingLoads > 0) {
            w.waitingAtTerminator = true;
            w.state = WarpState::WaitingMem;
            return;
        }
        if (w.loadsReadyAt > now) {
            w.readyAt = w.loadsReadyAt;
            return;
        }
        instrs_.inc();
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            const int tid = w.laneThread[lane];
            if (tid >= 0)
                blk.exitAcc.set(static_cast<std::size_t>(tid));
        }
        w.done = true;
        if (++blk.warpsDone == blk.warps.size())
            resolveEntry(blk_slot, now);
        return;
      }

      case Opcode::Load:
      case Opcode::Store: {
        if (!w.hasPendingAddrs) {
            w.pendingAddrs.clear();
            for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
                const int tid = w.laneThread[lane];
                if (tid >= 0) {
                    w.pendingAddrs.push_back(launch_.program->genAddr(
                        in->addrGen, threadOf(blk, tid)));
                }
            }
            w.hasPendingAddrs = true;
        }
        const bool is_store = in->op == Opcode::Store;
        ++w.pendingLoads;
        auto result = memStage_.issue(
            w.originRep, is_store, w.pendingAddrs, now,
            [this, blk_slot, warp_idx](Cycle ready) {
                auto &blk2 =
                    blocks_[static_cast<std::size_t>(blk_slot)];
                auto &ww =
                    blk2.warps[static_cast<std::size_t>(warp_idx)];
                ww.loadsReadyAt = std::max(ww.loadsReadyAt, ready);
                GPUMMU_ASSERT(ww.pendingLoads > 0);
                if (--ww.pendingLoads == 0 &&
                    ww.waitingAtTerminator) {
                    ww.waitingAtTerminator = false;
                    ww.state = WarpState::Ready;
                    ww.readyAt = std::max(ww.loadsReadyAt,
                                          eq_.now() + 1);
                }
            });
        if (result == MemIssueResult::BlockedTlbBusy) {
            GPUMMU_ASSERT(w.pendingLoads > 0);
            --w.pendingLoads;
            w.state = WarpState::WaitingTlbDrain;
            w.stallReason = StallReason::WalkerStructural;
            return;
        }
        instrs_.inc();
        w.hasPendingAddrs = false;
        ++w.instIdx;
        // Waits on this entry's outstanding data are charged to the
        // worst cause among its fire-and-forget loads.
        w.stallReason =
            dominantStall(w.stallReason, memStage_.lastIssueReason());
        // Fire and forget: the warp keeps executing this entry and
        // synchronizes with its data at the terminator.
        w.readyAt = now + 2;
        return;
      }
    }
    GPUMMU_PANIC("unhandled opcode");
}

void
TbcCore::tick(Cycle now)
{
    if (liveBlocks_ == 0)
        return;
    cpm_.tick(now);

    const bool mem_available = mmu_.memAvailable();

    // Encode (block slot, warp index) into one scheduler id.
    std::vector<int> &issuable = issuableScratch_;
    issuable.clear();
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
        TbcBlock &blk = blocks_[b];
        if (!blk.valid)
            continue;
        for (std::size_t i = 0; i < blk.warps.size(); ++i) {
            DynWarp &w = blk.warps[i];
            const int slot = warpSlotId(b, i);
            if (w.done) {
                // Finished its path; waiting for block mates at the
                // block-wide reconvergence barrier.
                stalls_.attribute(slot, StallReason::Reconvergence);
                continue;
            }
            if (w.state == WarpState::WaitingMem) {
                stalls_.attribute(slot, w.stallReason);
                continue;
            }
            if (w.state == WarpState::WaitingTlbDrain) {
                stalls_.attribute(slot,
                                  StallReason::WalkerStructural);
                continue;
            }
            if (w.state != WarpState::Ready)
                continue;
            if (w.readyAt > now) {
                stalls_.attribute(slot, w.stallReason);
                continue;
            }
            const Instruction *in = currentInstr(blk, w);
            if (!mem_available && (in->op == Opcode::Load ||
                                   in->op == Opcode::Store)) {
                // The blocking TLB's gate: walks outstanding.
                stalls_.attribute(slot, StallReason::TlbMiss);
                continue;
            }
            issuable.push_back(static_cast<int>(b) * kSchedStride +
                               static_cast<int>(i));
        }
    }

    const unsigned issued = issueInOrder(issuable, now);

    if (issued == 0 && liveBlocks_ > 0) {
        idleCycles_.inc();
        if (mmu_.missOutstanding())
            tlbIdleCycles_.inc();
    }
}

unsigned
TbcCore::issueInOrder(std::vector<int> &ready, Cycle now)
{
    if (ready.empty())
        return 0;
    // Loose round robin over encoded ids approximates the paper's
    // age-based dynamic warp issue. A dynamic warp ends at its
    // terminator, so none is ever out of instructions here.
    std::rotate(ready.begin(),
                std::upper_bound(ready.begin(), ready.end(), lastReached_),
                ready.end());
    unsigned issued = 0;
    bool mem_issued = false;
    std::size_t n = 0;
    while (n < ready.size() && issued < cfg_.issueWidth) {
        const int id = ready[n++];
        const int b = id / kSchedStride;
        const int i = id % kSchedStride;
        const TbcBlock &blk = blocks_[static_cast<std::size_t>(b)];
        const Instruction *in =
            currentInstr(blk, blk.warps[static_cast<std::size_t>(i)]);
        const bool is_mem =
            in->op == Opcode::Load || in->op == Opcode::Store;
        if (is_mem && mem_issued)
            continue;
        issueWarp(b, i, now);
        mem_issued = mem_issued || is_mem;
        ++issued;
    }
    lastReached_ = ready[n - 1];
    return issued;
}

void
TbcCore::regStats(StatRegistry &reg, const std::string &prefix)
{
    l1_.regStats(reg, prefix + ".l1");
    mmu_.regStats(reg, prefix + ".mmu");
    memStage_.regStats(reg, prefix + ".mem");
    cpm_.regStats(reg, prefix + ".cpm");
    reg.addCounter(prefix + ".instrs", &instrs_);
    reg.addCounter(prefix + ".alu_instrs", &aluInstrs_);
    reg.addCounter(prefix + ".branch_instrs", &branchInstrs_);
    reg.addCounter(prefix + ".divergent_branches",
                   &divergentBranches_);
    reg.addCounter(prefix + ".idle_cycles", &idleCycles_);
    reg.addCounter(prefix + ".tlb_idle_cycles", &tlbIdleCycles_);
    reg.addCounter(prefix + ".blocks_completed", &blocksCompleted_);
    reg.addCounter(prefix + ".compactions", &compactions_);
    reg.addCounter(prefix + ".dynamic_warps", &dynWarps_);
    reg.addHistogram(prefix + ".warp_occupancy", &warpOccupancy_);
    stalls_.regStats(reg, prefix);
}

} // namespace gpummu
