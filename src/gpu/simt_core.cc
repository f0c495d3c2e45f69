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
    : coreId_(core_id), cfg_(cfg), launch_(launch), eq_(eq),
      l1_(cfg.l1, mem), mmu_(cfg.mmu, as, mem, eq),
      memStage_(mmu_, l1_, eq)
{
    GPUMMU_ASSERT(launch.program != nullptr);
    GPUMMU_ASSERT(launch.threadsPerBlock % kWarpWidth == 0,
                  "threadsPerBlock must be a warp multiple");
    GPUMMU_ASSERT(cfg.numWarpSlots <= 64 && cfg.issueWidth > 0);
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

void
SimtCore::setTraceSink(TraceSink *sink)
{
    l1_.setTraceSink(sink, coreId_);
    mmu_.setTraceSink(sink, coreId_);
    memStage_.setTraceSink(sink, coreId_);
}

void
SimtCore::setHeatProfiler(HeatProfiler *heat)
{
    mmu_.setHeatProfiler(heat, coreId_);
    memStage_.setHeatProfiler(heat);
}

void
SimtCore::setSpanTracker(SpanTracker *spans)
{
    mmu_.setSpanTracker(spans, coreId_);
    memStage_.setSpanTracker(spans, coreId_);
}

unsigned
SimtCore::warpsPerBlock() const
{
    return launch_.threadsPerBlock / kWarpWidth;
}

bool
SimtCore::canAcceptBlock() const
{
    return cfg_.numWarpSlots - liveWarps_ >= warpsPerBlock() &&
           residentBlocks_ < blocks_.size();
}

void
SimtCore::launchBlock(unsigned global_block_id)
{
    GPUMMU_ASSERT(canAcceptBlock());
    auto blk_it = std::find_if(blocks_.begin(), blocks_.end(),
                               [](const ResidentBlock &b) {
                                   return !b.valid;
                               });
    const int slot = static_cast<int>(blk_it - blocks_.begin());
    ResidentBlock &blk = *blk_it;
    blk.valid = true;
    ++residentBlocks_;
    blk.globalId = global_block_id;
    blk.threadsLive = launch_.threadsPerBlock;
    blk.threads.clear();
    blk.threads.reserve(launch_.threadsPerBlock);
    blk.warpIds.clear();

    const unsigned tpb = launch_.threadsPerBlock;
    for (unsigned t = 0; t < tpb; ++t) {
        ThreadCtx ctx(static_cast<int>(global_block_id * tpb + t),
                      static_cast<int>(global_block_id),
                      static_cast<int>(t), kWarpWidth, launch_.seed);
        ctx.blockVisits.assign(launch_.program->numBlocks(), 0);
        blk.threads.push_back(std::move(ctx));
    }

    const LaneMask full =
        kWarpWidth == 64 ? ~LaneMask(0)
                         : ((LaneMask(1) << kWarpWidth) - 1);
    unsigned assigned = 0;
    for (std::size_t wid = 0;
         wid < warps_.size() && assigned < warpsPerBlock(); ++wid) {
        if (warps_[wid].valid)
            continue;
        Warp &w = warps_[wid];
        w.valid = true;
        w.blockSlot = slot;
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            w.laneThread[lane] =
                static_cast<int>(assigned * kWarpWidth + lane);
        }
        w.stack.reset(0, full);
        w.next.reset();
        due_ |= std::uint64_t(1) << wid;
        blk.warpIds.push_back(static_cast<int>(wid));
        ++assigned;
        ++liveWarps_;
    }
    GPUMMU_ASSERT(assigned == warpsPerBlock());
}

const Instruction *
SimtCore::nextInstr(Warp &w)
{
    if (w.next)
        return *w.next;
    w.stack.reconverge();
    if (w.stack.empty()) {
        w.next = nullptr;
    } else {
        const auto &top = w.stack.top();
        const auto &bb = launch_.program->block(top.block);
        GPUMMU_ASSERT(top.instIdx < static_cast<int>(bb.instrs.size()));
        w.next = &bb.instrs[static_cast<std::size_t>(top.instIdx)];
    }
    return *w.next;
}

void
SimtCore::noteBlockEntry(Warp &w)
{
    auto &top = w.stack.top();
    if (top.instIdx != 0 || top.entered)
        return;
    top.entered = true;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (top.mask & (LaneMask(1) << lane)) {
            auto &ctx = threadAt(w, lane);
            ++ctx.blockVisits[static_cast<std::size_t>(top.block)];
        }
    }
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
    if (nextInstr(w) == nullptr)
        retireWarp(wid, w);
    if (blk.threadsLive == 0) {
        blocksCompleted_.inc();
        blk.valid = false;
        --residentBlocks_;
    }
}

void
SimtCore::retireWarp(int wid, Warp &w)
{
    GPUMMU_ASSERT(w.valid);
    w.valid = false;
    due_ &= ~(std::uint64_t(1) << wid);
    GPUMMU_ASSERT(liveWarps_ > 0);
    --liveWarps_;
    sched_->onWarpReset(wid);
}

void
SimtCore::issueWarp(int wid, Cycle now)
{
    Warp &w = warps_[static_cast<std::size_t>(wid)];
    const Instruction *in = nextInstr(w);
    GPUMMU_ASSERT(in != nullptr);
    // Every case below may move the PC; a bounce merely recomputes.
    w.next.reset();
    noteBlockEntry(w);
    // ALU latency and branch pipelining are execution, not stalls.
    w.stallReason = StallReason::None;
    w.chargeFrom = now + 1;

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
        // Lanes left behind keep the warp due; a finished warp
        // retires out of due_.
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
            w.stallReason = StallReason::WalkerStructural;
            drainWaiting_ |= std::uint64_t(1) << wid;
            return;
        }
        instrs_.inc();
        w.hasPendingAddrs = false;
        ++w.stack.top().instIdx;
        // Whether the completion already fired (all-hit, readyAt in
        // the future) or is pending (miss path, WaitingMem), the wait
        // ahead is charged to the instruction's dominant cause.
        w.stallReason = memStage_.lastIssueReason();
        return;
      }
    }
    GPUMMU_PANIC("unhandled opcode");
}

void
SimtCore::makeTimed(int wid, Cycle ready)
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

void
SimtCore::chargeWait(int wid, Warp &w, Cycle end)
{
    if (end > w.chargeFrom) {
        stalls_.attribute(wid, w.stallReason, end - w.chargeFrom);
        w.chargeFrom = end;
    }
}

void
SimtCore::promoteTimed(Cycle now)
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
    for (std::uint64_t m = promoted; m != 0; m &= m - 1) {
        const int wid = std::countr_zero(m);
        chargeWait(wid, warps_[static_cast<std::size_t>(wid)], now);
    }
}

void
SimtCore::tick(Cycle now)
{
    quiescent_ = false;
    if (liveWarps_ == 0) {
        // Nothing resident: ticking is a no-op (the scheduler is not
        // consulted on this path either), so repeats are free.
        quiescent_ = true;
        return;
    }

    sched_->tick(now);
    if (now >= nextWake_)
        promoteTimed(now);
    bool retired = false;

    // Collect issueable warps among the due ones, in slot order.
    // Memory warps are filtered by the blocking policy and the
    // scheduler's throttle. Waiting and timed warps are charged as
    // intervals (chargeWait); the blocking TLB's gate is the one
    // stall charged per cycle. ALU latency and the scheduler's own
    // throttle stay unattributed, which keeps per-warp totals below
    // the run's cycle count.
    const bool mem_available = mmu_.memAvailable();
    std::vector<int> &issuable = issuableScratch_;
    issuable.clear();
    tlbGated_ = 0;
    bool any_ready_mem_blocked = false;
    for (std::uint64_t m = due_; m != 0; m &= m - 1) {
        const int iw = std::countr_zero(m);
        Warp &w = warps_[static_cast<std::size_t>(iw)];
        const Instruction *in = nextInstr(w);
        if (in == nullptr) {
            retireWarp(iw, w);
            retired = true;
            continue;
        }
        const bool is_mem =
            in->op == Opcode::Load || in->op == Opcode::Store;
        if (is_mem) {
            if (!mem_available) {
                // The blocking TLB's gate: walks are outstanding.
                any_ready_mem_blocked = true;
                stalls_.attribute(iw, StallReason::TlbMiss);
                tlbGated_ |= std::uint64_t(1) << iw;
                continue;
            }
            if (!sched_->mayIssueMem(iw)) {
                any_ready_mem_blocked = true;
                continue;
            }
        }
        issuable.push_back(iw);
    }

    const unsigned issued = issuePass(
        *sched_, issuable, cfg_.issueWidth,
        [this](int wid) {
            return nextInstr(warps_[static_cast<std::size_t>(wid)]);
        },
        [this, &retired](int wid) {
            retireWarp(wid, warps_[static_cast<std::size_t>(wid)]);
            retired = true;
        },
        [this, now](int wid) { issueWarp(wid, now); });

    if (issued == 0 && liveWarps_ > 0) {
        idleCycles_.inc();
        chargeTlbIdle_ = mmu_.missOutstanding();
        if (chargeTlbIdle_)
            tlbIdleCycles_.inc();
        chargeMemBlocked_ = any_ready_mem_blocked;
        if (any_ready_mem_blocked)
            memBlockedCycles_.inc();
    }

    // A quiescent tick only charged attribution: nothing issued or
    // retired and the scan produced no issuable warp, so the scheduler
    // was never consulted. With a pure scheduler, every following tick
    // charges the same cells until nextWake_ arrives or a block is
    // launched - so the core may sleep.
    quiescent_ = issued == 0 && !retired && issuable.empty() &&
                 sched_->tickIsPure();
    // A tick that issued and left no warp due sleeps at once when the
    // next tick would be idle: it takes over that idle tick's charges
    // (no gate, no blocked warp, the TLB-idle poll) for
    // chargeSkipped() to repeat.
    if (issued > 0 && !retired && due_ == 0 && nextWake_ > now + 1 &&
        sched_->tickIsPure()) {
        tlbGated_ = 0;
        chargeMemBlocked_ = false;
        chargeTlbIdle_ = mmu_.missOutstanding();
        quiescent_ = true;
    }
}

void
SimtCore::chargeSkipped(Cycle now, Cycle n)
{
    (void)now;
    if (liveWarps_ == 0)
        return;
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
SimtCore::flushDeferredCharges()
{
    // Settle every open wait through the current cycle, which the
    // caller has accounted in full.
    for (std::size_t wid = 0; wid < warps_.size(); ++wid) {
        Warp &w = warps_[wid];
        if (w.valid && !(due_ >> wid & 1))
            chargeWait(static_cast<int>(wid), w, eq_.now() + 1);
    }
}

void
SimtCore::regStats(StatRegistry &reg, const std::string &prefix)
{
    l1_.regStats(reg, prefix + ".l1");
    mmu_.regStats(reg, prefix + ".mmu");
    memStage_.regStats(reg, prefix + ".mem");
    sched_->regStats(reg, prefix + ".sched");
    reg.addCounter(prefix + ".instrs", &instrs_);
    reg.addCounter(prefix + ".alu_instrs", &aluInstrs_);
    reg.addCounter(prefix + ".branch_instrs", &branchInstrs_);
    reg.addCounter(prefix + ".divergent_branches", &divergentBranches_);
    reg.addCounter(prefix + ".idle_cycles", &idleCycles_);
    reg.addCounter(prefix + ".tlb_idle_cycles", &tlbIdleCycles_);
    reg.addCounter(prefix + ".blocks_completed", &blocksCompleted_);
    reg.addCounter(prefix + ".mem_blocked_cycles", &memBlockedCycles_);
    stalls_.regStats(reg, prefix);
}

} // namespace gpummu
