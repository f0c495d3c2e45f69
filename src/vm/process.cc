#include "vm/process.hh"

#include "mmu/l2_tlb.hh"
#include "mmu/ptw.hh"
#include "mmu/tlb.hh"
#include "sim/logging.hh"

namespace gpummu {

ProcessManager::ProcessManager(PhysicalMemory &phys,
                               const OsConfig &cfg)
    : phys_(phys), cfg_(cfg)
{
}

Process &
ProcessManager::create(const std::string &name, bool use_large,
                       bool lazy)
{
    const Asid asid = nextAsid_++;
    procs_.push_back(std::make_unique<Process>(
        asid, name, phys_, use_large, VirtAddr(0x10000000ULL)));
    Process &p = *procs_.back();
    if (lazy)
        p.as.setLazyBacking(true);
    p.as.setEventListener(this);
    return p;
}

Process &
ProcessManager::process(Asid asid)
{
    for (auto &p : procs_)
        if (p->asid == asid)
            return *p;
    GPUMMU_PANIC("no process with ASID ", asid);
}

const Process &
ProcessManager::process(Asid asid) const
{
    for (const auto &p : procs_)
        if (p->asid == asid)
            return *p;
    GPUMMU_PANIC("no process with ASID ", asid);
}

void
ProcessManager::addTlbTarget(Tlb *tlb, unsigned page_shift)
{
    tlbs_.push_back(TlbTarget{tlb, page_shift});
}

std::uint64_t
ProcessManager::invalidateRange4K(Asid asid, Vpn lo4k, Vpn hi4k)
{
    std::uint64_t entries = 0;
    for (const auto &target : tlbs_) {
        // Convert the 4KB VPN range to the target's tag granularity
        // (12 for 4KB TLBs, 21 for 2MB-tagged ones, 7 for the
        // virtually-addressed line ids the IOMMU path's L1 uses).
        const unsigned shift = target.pageShift;
        std::uint64_t llo, lhi; // inclusive local-tag range
        if (shift >= kPageShift4K) {
            const unsigned down = shift - kPageShift4K;
            llo = lo4k >> down;
            lhi = (hi4k - 1) >> down;
        } else {
            const unsigned up = kPageShift4K - shift;
            llo = lo4k << up;
            lhi = (hi4k << up) - 1;
        }
        entries += target.tlb->invalidateMatching(
            [asid, llo, lhi](std::uint64_t tag, const TlbEntryInfo &) {
                return keyAsid(tag) == asid &&
                       keyLocal(tag) >= llo && keyLocal(tag) <= lhi;
            });
    }

    if (l2_) {
        const unsigned shift = l2_->pageShift();
        const unsigned down = shift - kPageShift4K;
        const std::uint64_t llo = lo4k >> down;
        const std::uint64_t lhi = (hi4k - 1) >> down;
        entries += l2_->invalidateMatching(
            [asid, llo, lhi](std::uint64_t tag) {
                return keyAsid(tag) == asid &&
                       keyLocal(tag) >= llo && keyLocal(tag) <= lhi;
            });
    }
    return entries;
}

Cycle
ProcessManager::shootdown(Asid asid, Vpn lo4k, Vpn hi4k, Cycle now)
{
    GPUMMU_ASSERT(hi4k > lo4k, "empty shootdown range");
    std::uint64_t entries = invalidateRange4K(asid, lo4k, hi4k);

    const PageTable &pt = process(asid).as.pageTable();
    for (PageWalkers *w : walkers_)
        entries += w->invalidatePagingLines(pt);

    const Cycle cost =
        cfg_.shootdownBase + cfg_.shootdownPerEntry * entries;
    shootdowns_.inc();
    shootdownEntries_.inc(entries);
    shootdownCycles_.inc(cost);
    return now + cost;
}

Cycle
ProcessManager::munmap(Asid asid, const VmRegion &region, Cycle now)
{
    Process &p = process(asid);
    const Vpn lo = region.base >> kPageShift4K;
    const Vpn hi = region.end() >> kPageShift4K;
    p.as.munmap(region);
    return shootdown(asid, lo, hi, now);
}

Cycle
ProcessManager::destroy(Asid asid, Cycle now)
{
    Process &p = process(asid);
    Cycle done = now;
    // munmap mutates regions(); drain from the back.
    while (!p.as.regions().empty()) {
        const VmRegion region = p.as.regions().back();
        done = munmap(asid, region, done);
    }
    return done;
}

Cycle
ProcessManager::noteContextSwitch(Asid from, Asid to)
{
    if (from == to)
        return 0;
    switches_.inc();
    switchCycles_.inc(cfg_.switchPenalty);
    return cfg_.switchPenalty;
}

void
ProcessManager::noteFault(Asid asid)
{
    (void)asid;
    faults_.inc();
    faultCycles_.inc(cfg_.faultLatency);
}

void
ProcessManager::onDemandFault(Asid asid, Vpn vpn)
{
    (void)asid;
    (void)vpn;
    // Functional fault-in; the timed service cost is accounted by
    // noteFault() on the IOMMU path that scheduled the handler.
}

void
ProcessManager::onCoalesce(Asid asid, std::uint64_t vpn2m)
{
    // Promotion changes the page size of live translations: cached
    // 4KB entries for the chunk keep the right frames but the wrong
    // size flag, so the OS invalidates them before exposing the 2MB
    // mapping (their cycle cost rides inside the fault handler's
    // service latency that triggered the coalesce).
    invalidateRange4K(asid, vpn2m << (kPageShift2M - kPageShift4K),
                      (vpn2m + 1) << (kPageShift2M - kPageShift4K));
    coalesces_.inc();
}

void
ProcessManager::onSplinter(Asid asid, std::uint64_t vpn2m)
{
    // Demotion is the same story in reverse: entries cached under the
    // 2MB mapping (large-flagged fills, 2MB tags) must go before the
    // 4KB view becomes visible.
    invalidateRange4K(asid, vpn2m << (kPageShift2M - kPageShift4K),
                      (vpn2m + 1) << (kPageShift2M - kPageShift4K));
    splinters_.inc();
}

void
ProcessManager::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".shootdown.count", &shootdowns_);
    reg.addCounter(prefix + ".shootdown.entries", &shootdownEntries_);
    reg.addCounter(prefix + ".shootdown.cycles", &shootdownCycles_);
    reg.addCounter(prefix + ".fault.count", &faults_);
    reg.addCounter(prefix + ".fault.cycles", &faultCycles_);
    reg.addCounter(prefix + ".ctxswitch.count", &switches_);
    reg.addCounter(prefix + ".ctxswitch.cycles", &switchCycles_);
    reg.addCounter(prefix + ".vm.coalesces", &coalesces_);
    reg.addCounter(prefix + ".vm.splinters", &splinters_);
}

} // namespace gpummu
