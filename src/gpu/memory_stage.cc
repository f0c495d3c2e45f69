#include "gpu/memory_stage.hh"

#include <algorithm>

#include "mem/request.hh"
#include "mmu/l2_tlb.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace gpummu {

MemoryStage::MemoryStage(Mmu &mmu, L1Cache &l1, EventQueue &eq)
    : mmu_(mmu), l1_(l1), eq_(eq), pageDivergence_(1, 33),
      linesPerInstr_(1, 33)
{
}

void
MemoryStage::noteOutcome(const AccessOutcome &out, bool is_store)
{
    // Stores retire into the write-through path without the warp
    // waiting, so they never dominate the instruction's stall cause.
    if (is_store)
        return;
    StallReason r = StallReason::Interconnect;
    if (out.dram)
        r = StallReason::Dram;
    else if (!out.hit)
        r = StallReason::L1Miss; // includes merges into in-flight fills
    lastIssueReason_ = dominantStall(lastIssueReason_, r);
}

Cycle
MemoryStage::accessLine(PhysAddr pline, bool is_store, Cycle at,
                        int warp_id, bool tlb_missed_instr)
{
    auto out = l1_.access(pline, is_store, at, warp_id);
    // MSHR-full: retry when an outstanding fill frees an entry;
    // bounded because fills complete within a DRAM round trip.
    while (out.needRetry) {
        at = out.readyAt;
        out = l1_.access(pline, is_store, at, warp_id);
    }
    noteOutcome(out, is_store);
    if (!is_store && !out.hit && sched_)
        sched_->onL1Miss(warp_id, pline, tlb_missed_instr);
    return out.readyAt;
}

MemIssueResult
MemoryStage::issue(int warp_id, bool is_store,
                   const std::vector<VirtAddr> &lane_addrs, Cycle now,
                   CompleteFn complete)
{
    GPUMMU_ASSERT(!lane_addrs.empty(), "memory op with no active lanes");

    const unsigned page_shift =
        mmu_.config().enabled ? mmu_.pageShift() : kPageShift4K;
    coalesceInto(accScratch_, spareLines_, lane_addrs, kLineShift,
                 page_shift);
    const CoalescedAccess &acc = accScratch_;

    lastIssueReason_ = StallReason::Interconnect;
    if (trace_)
        trace_->instantAt(TraceCat::Coalescer, "coalesce", traceTid_,
                          now, "lines", acc.totalLines, "pages",
                          acc.pages.size());

    if (iommu_ != nullptr)
        return issueIommu(warp_id, is_store, acc, now,
                          std::move(complete));

    // --- No-TLB baseline: translation is magic and free. ---
    if (!mmu_.config().enabled) {
        memInstrs_.inc();
        pageDivergence_.sample(acc.pageDivergence());
        linesPerInstr_.sample(acc.totalLines);
        if (heat_)
            heat_->onPageDivergence(acc.pageDivergence());
        Cycle ready = now + 1;
        for (const auto &pg : acc.pages) {
            for (std::uint64_t vline : pg.vlines) {
                const PhysAddr pa =
                    mmu_.magicTranslate(vline << kLineShift);
                const Cycle done = accessLine(lineAddrOf(pa), is_store,
                                              now, warp_id, false);
                if (!is_store)
                    ready = std::max(ready, done);
            }
        }
        complete(ready);
        return MemIssueResult::Issued;
    }

    // --- Hit-under-miss bounce check (no miss-under-miss). ---
    // Probe without disturbing stats/LRU: if this warp would miss
    // while walks are outstanding it gets swapped out and retries
    // after the MMU drains.
    if (mmu_.missOutstanding()) {
        GPUMMU_ASSERT(mmu_.config().hitUnderMiss,
                      "core must gate blocking TLBs on memAvailable()");
        for (const auto &pg : acc.pages) {
            if (!mmu_.probeTlb(pg.vpn)) {
                tlbBounces_.inc();
                return MemIssueResult::BlockedTlbBusy;
            }
        }
    }

    // Past the bounce point: the instruction definitely issues, so
    // record it exactly once.
    memInstrs_.inc();
    pageDivergence_.sample(acc.pageDivergence());
    linesPerInstr_.sample(acc.totalLines);
    if (heat_)
        heat_->onPageDivergence(acc.pageDivergence());

    // --- Real TLB lookup for the coalesced PTE set. ---
    std::vector<Vpn> &vpns = vpnScratch_;
    vpns.clear();
    vpns.reserve(acc.pages.size());
    for (const auto &pg : acc.pages)
        vpns.push_back(pg.vpn);
    mmu_.lookupBatchInto(batchScratch_, vpns, warp_id);
    const Mmu::BatchResult &batch = batchScratch_;
    const Cycle t0 = now + batch.extraCycles;

    std::vector<Vpn> &miss_vpns = missVpnScratch_;
    miss_vpns.clear();
    for (std::size_t i = 0; i < batch.lookups.size(); ++i) {
        const auto &vl = batch.lookups[i];
        if (vl.hit) {
            if (sched_)
                sched_->onTlbHit(warp_id, vl.vpn, vl.depth);
            if (onTlbHitHistory_)
                onTlbHitHistory_(warp_id, vl.vpn, vl.history,
                                 vl.historyUsed);
        } else {
            if (sched_)
                sched_->onTlbMiss(warp_id, vl.vpn);
            miss_vpns.push_back(vl.vpn);
        }
    }
    const bool tlb_missed_instr = !miss_vpns.empty();
    if (tlb_missed_instr) {
        instrsWithTlbMiss_.inc();
        // A page-walk wait dominates any cache behaviour underneath.
        // But when every missing VPN is already resident in the
        // shared L2 TLB, the wait is its short hit latency, not a
        // walk - attribute that separately so "time lost to walks"
        // stays honest with an L2 in the design.
        lastIssueReason_ = StallReason::TlbMiss;
        if (const L2Tlb *l2 = mmu_.l2Tlb()) {
            bool covered = true;
            for (Vpn v : miss_vpns)
                covered = covered && l2->probe(asidKey(mmu_.asid(), v));
            if (covered)
                lastIssueReason_ = StallReason::L2Tlb;
        }
    }

    // --- All hits: straight to the L1. ---
    if (miss_vpns.empty()) {
        Cycle ready = t0 + 1;
        for (std::size_t i = 0; i < acc.pages.size(); ++i) {
            const auto &pg = acc.pages[i];
            const std::uint64_t frame = batch.lookups[i].frameBase;
            for (std::uint64_t vline : pg.vlines) {
                const PhysAddr pa =
                    mmu_.physAddr(frame, vline << kLineShift);
                const Cycle done = accessLine(lineAddrOf(pa), is_store,
                                              t0, warp_id, false);
                if (!is_store)
                    ready = std::max(ready, done);
            }
        }
        complete(ready);
        return MemIssueResult::Issued;
    }

    GPUMMU_ASSERT(mmu_.canStartMisses(miss_vpns.size()),
                  "miss set exceeds MSHRs or started under a miss");

    // --- Misses: start walks; policy decides what overlaps. ---
    const bool overlap = mmu_.config().cacheOverlap;

    ArenaRc<WalkPending> pending = walkArena_.createRc();
    pending->remainingWalks = miss_vpns.size();
    pending->ready = t0 + 1;
    pending->isStore = is_store;
    pending->overlap = overlap;
    pending->warpId = warp_id;
    pending->complete = std::move(complete);

    for (std::size_t i = 0; i < acc.pages.size(); ++i) {
        const auto &pg = acc.pages[i];
        const auto &vl = batch.lookups[i];
        if (vl.hit) {
            if (overlap) {
                // Hitting threads look up the cache immediately, even
                // though a warp-mate is walking.
                for (std::uint64_t vline : pg.vlines) {
                    const PhysAddr pa =
                        mmu_.physAddr(vl.frameBase, vline << kLineShift);
                    const Cycle done =
                        accessLine(lineAddrOf(pa), is_store, t0, warp_id,
                                   true);
                    if (!is_store)
                        pending->ready = std::max(pending->ready, done);
                }
            } else {
                pending->deferredByFrame.emplace_back(vl.frameBase,
                                                      pg.vlines);
            }
        } else {
            pending->deferredByVpn.emplace_back(pg.vpn, pg.vlines);
        }
    }

    auto replay = [this, pending](std::uint64_t frame,
                                  const std::vector<std::uint64_t> &vlines,
                                  Cycle at) {
        for (std::uint64_t vline : vlines) {
            const PhysAddr pa = mmu_.physAddr(frame, vline << kLineShift);
            const Cycle done = accessLine(lineAddrOf(pa),
                                          pending->isStore, at,
                                          pending->warpId, true);
            if (!pending->isStore)
                pending->ready = std::max(pending->ready, done);
        }
    };

    mmu_.requestWalks(
        miss_vpns, warp_id, t0,
        [pending, replay](Vpn vpn, std::uint64_t frame, Cycle fin) {
            pending->lastWalkDone = std::max(pending->lastWalkDone, fin);
            if (pending->overlap) {
                // Release this page's lines as soon as its walk ends.
                for (auto &[dvpn, vlines] : pending->deferredByVpn) {
                    if (dvpn == vpn && !vlines.empty()) {
                        replay(frame, vlines, fin);
                        vlines.clear();
                    }
                }
            } else {
                // Remember the frame; all lines go after the last walk.
                for (auto &[dvpn, vlines] : pending->deferredByVpn) {
                    if (dvpn == vpn) {
                        pending->deferredByFrame.emplace_back(
                            frame, std::move(vlines));
                        vlines.clear();
                    }
                }
            }

            GPUMMU_ASSERT(pending->remainingWalks > 0);
            if (--pending->remainingWalks > 0)
                return;

            if (!pending->overlap) {
                for (const auto &[dframe, vlines] :
                     pending->deferredByFrame) {
                    replay(dframe, vlines, pending->lastWalkDone);
                }
            }
            const Cycle resume = pending->isStore
                                     ? pending->lastWalkDone + 1
                                     : std::max(pending->ready,
                                                pending->lastWalkDone + 1);
            pending->complete(resume);
        });

    return MemIssueResult::Issued;
}

MemIssueResult
MemoryStage::issueIommu(int warp_id, bool is_store,
                        const CoalescedAccess &acc, Cycle now,
                        CompleteFn complete)
{
    GPUMMU_ASSERT(!mmu_.config().enabled,
                  "IOMMU mode requires the per-core MMU disabled");
    memInstrs_.inc();
    pageDivergence_.sample(acc.pageDivergence());
    linesPerInstr_.sample(acc.totalLines);
    if (heat_)
        heat_->onPageDivergence(acc.pageDivergence());

    // Virtually addressed L1: lines are looked up by virtual line id
    // (the virtual->physical bijection makes the hit/miss pattern
    // identical for the tag-level model). Translation gates only the
    // pages whose lines missed.
    ArenaRc<IommuPending> pending = iommuArena_.createRc();
    pending->ready = now + 1;
    pending->complete = std::move(complete);

    std::vector<Vpn> &missing_pages = iommuMissScratch_;
    missing_pages.clear();
    for (const auto &pg : acc.pages) {
        bool page_missed = false;
        for (std::uint64_t vline : pg.vlines) {
            // Virtual line ids are ASID-composed: co-scheduled
            // tenants with overlapping VAs must not hit each other's
            // lines in the virtually addressed L1.
            const std::uint64_t vkey = asidKey(asid_, vline);
            auto out = l1_.access(vkey, is_store, now, warp_id);
            while (out.needRetry) {
                out = l1_.access(vkey, is_store, out.readyAt,
                                 warp_id);
            }
            noteOutcome(out, is_store);
            if (!is_store) {
                pending->ready =
                    std::max(pending->ready, out.readyAt);
                if (!out.hit) {
                    page_missed = true;
                    if (sched_)
                        sched_->onL1Miss(warp_id, vline, false);
                }
            }
        }
        if (page_missed)
            missing_pages.push_back(pg.vpn);
    }

    if (is_store || missing_pages.empty()) {
        pending->complete(pending->ready);
        return MemIssueResult::Issued;
    }

    // The IOMMU translates on the miss path, so the translation wait
    // dominates whatever the cache did.
    lastIssueReason_ = StallReason::TlbMiss;

    // After-L1-miss translation at the controller: the miss response
    // cannot return before the IOMMU produced a physical address
    // (plus the L2 leg it gates). Both legs run on this run's memory
    // system.
    const MemorySystemConfig &mem_cfg = l1_.memory().config();
    const Cycle refetch = mem_cfg.icntLatency + mem_cfg.l2HitLatency;
    pending->remaining = missing_pages.size();
    for (Vpn vpn : missing_pages) {
        // The span opens as the request departs the core; the gap to
        // the IOMMU's lookup stage is interconnect + port queueing.
        if (spans_)
            spans_->openAt(asidKey(asid_, vpn),
                           SpanStage::IommuDepart, now, spanTid_);
        iommu_->translate(
            asidKey(asid_, vpn), now + mem_cfg.icntLatency,
            [pending, refetch](std::uint64_t, Cycle done) {
                pending->ready =
                    std::max(pending->ready, done + refetch);
                GPUMMU_ASSERT(pending->remaining > 0);
                if (--pending->remaining == 0)
                    pending->complete(pending->ready);
            });
    }
    return MemIssueResult::Issued;
}

void
MemoryStage::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".mem_instrs", &memInstrs_);
    reg.addCounter(prefix + ".tlb_bounces", &tlbBounces_);
    reg.addCounter(prefix + ".instrs_with_tlb_miss", &instrsWithTlbMiss_);
    reg.addHistogram(prefix + ".page_divergence", &pageDivergence_);
    reg.addHistogram(prefix + ".lines_per_instr", &linesPerInstr_);
}

} // namespace gpummu
