#include "mmu/iommu.hh"

#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "vm/process.hh"

namespace gpummu {

Iommu::Iommu(const IommuConfig &cfg, AddressSpace &as,
             MemorySystem &mem, EventQueue &eq)
    : cfg_(cfg), as_(as), eq_(eq), tlb_(cfg.tlb),
      walkers_(cfg.ptw, as.pageTable(), mem, eq)
{
    if (cfg_.checkInvariants) {
        checker_ = std::make_unique<InvariantChecker>(
            as_.pageTable(), as_.asid());
        tlb_.setChecker(checker_.get(), kPageShift4K);
        walkers_.setChecker(checker_.get());
    }
}

void
Iommu::attachProcesses(ProcessManager *pm)
{
    pm_ = pm;
    if (checker_ && pm_ != nullptr) {
        for (const auto &p : pm_->all())
            if (p->asid != as_.asid())
                checker_->addSpace(p->asid, p->as.pageTable());
    }
}

AddressSpace &
Iommu::spaceFor(Asid asid)
{
    if (asid == as_.asid())
        return as_;
    GPUMMU_ASSERT(pm_ != nullptr, "translate for ASID ", asid,
                  " without attachProcesses");
    return pm_->process(asid).as;
}

void
Iommu::issueWalk(Vpn key, Cycle at)
{
    const Asid asid = keyAsid(key);
    AddressSpace &as = spaceFor(asid);
    walkVpn_.assign(1, keyLocal(key));
    walkers_.requestBatchFor(
        as.pageTable(), asid, walkVpn_, at,
        [this, key](Vpn walked, const Translation &t, Cycle finish) {
            const std::uint64_t frame = t.ppn;
            tlb_.fill(asidKey(keyAsid(key), walked), t);
            // The owning span and every request merged behind it
            // fill and retire at the same completion cycle.
            if (spans_)
                spans_->closeAllAt(key, SpanStage::Fill, finish);
            const Cycle started = outstanding_.take(
                key, [frame, finish](DoneFn &fn) { fn(frame, finish); });
            missLatency_.sample(finish - started);
        });
}

void
Iommu::translate(Vpn key, Cycle now, DoneFn done)
{
    // Shared lookup port: requests from all cores serialize here.
    const Cycle start = std::max(now, portFreeAt_);
    portFreeAt_ = start + cfg_.lookupInterval;
    const Cycle looked_up = start + cfg_.lookupLatency;

    // Depart -> probe is interconnect + port queueing; requests that
    // reach translate() directly (tests) open their span here.
    if (spans_)
        spans_->openOrStageAt(key, SpanStage::IommuLookup, start,
                              spanTid_);

    auto res = tlb_.lookup(key, /*warp=*/-1);
    if (res.hit) {
        if (checker_)
            checker_->onTlbHit(key, res.ppn, kPageShift4K);
        if (spans_)
            spans_->closeNewestAt(key, SpanStage::IommuHit, looked_up);
        done(res.ppn, looked_up);
        return;
    }

    if (outstanding_.join(key, done)) {
        mergedWalks_.inc();
        // Beside the merge counter: IommuMerge-stage span count ==
        // iommu merged_walks (conservation check).
        if (spans_)
            spans_->stageAt(key, SpanStage::IommuMerge, start);
        return;
    }
    outstanding_.open(key, now, std::move(done));

    const Asid asid = keyAsid(key);
    const Vpn vpn = keyLocal(key);
    AddressSpace &as = spaceFor(asid);
    if (pm_ != nullptr && !as.pageTable().translate(vpn)) {
        // Minor fault: the page is reserved but not yet backed. The
        // OS handler runs for faultLatency cycles, faults the page
        // in, and the walk retries against the now-mapped PTE.
        GPUMMU_ASSERT(as.isReserved(vpn),
                      "IOMMU access to unreserved VPN ", vpn,
                      " (asid ", asid, ")");
        pm_->noteFault(asid);
        if (spans_)
            spans_->stageAt(key, SpanStage::IommuFault, looked_up);
        const Cycle serviced =
            looked_up + pm_->osConfig().faultLatency;
        eq_.schedule(serviced, [this, key, serviced, &as]() {
            as.faultIn(keyLocal(key));
            issueWalk(key, serviced);
        });
        return;
    }

    issueWalk(key, looked_up);
}

void
Iommu::checkEndOfKernel() const
{
    if (!checker_)
        return;
    if (!outstanding_.empty()) {
        const Vpn key = outstanding_.smallestKey();
        GPUMMU_PANIC(outstanding_.size(),
                     " VPNs still outstanding in the IOMMU at kernel "
                     "end (smallest: VPN ", keyLocal(key), " of asid ",
                     keyAsid(key), ", ", outstanding_.waiters(key),
                     " waiters)");
    }
    walkers_.checkDrained();
    tlb_.checkSweep();
}

void
Iommu::regStats(StatRegistry &reg, const std::string &prefix)
{
    tlb_.regStats(reg, prefix + ".tlb");
    walkers_.regStats(reg, prefix + ".ptw");
    reg.addCounter(prefix + ".merged_walks", &mergedWalks_);
    reg.addHistogram(prefix + ".miss_latency", &missLatency_);
}

} // namespace gpummu
