#include "mmu/mmu.hh"

#include <algorithm>

#include "mmu/l2_tlb.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"

namespace gpummu {

Mmu::Mmu(const MmuConfig &cfg, AddressSpace &as, MemorySystem &mem,
         EventQueue &eq)
    : cfg_(cfg), as_(as),
      pageShift_(as.usesLargePages() ? kPageShift2M : kPageShift4K),
      asid_(as.asid()), tlb_(cfg.tlb),
      walkers_(cfg.ptw, as.pageTable(), mem, eq)
{
    batch_.pending.reserve(cfg_.mshrs);
    if (cfg_.checkInvariants) {
        checker_ = std::make_unique<InvariantChecker>(
            as_.pageTable(), asid_);
        tlb_.setChecker(checker_.get(), pageShift_);
        walkers_.setChecker(checker_.get());
    }
}

PhysAddr
Mmu::magicTranslate(VirtAddr va) const
{
    auto t = as_.pageTable().translate(va >> kPageShift4K);
    GPUMMU_ASSERT(t.has_value(), "access to unmapped VA ", va);
    return (t->ppn << kPageShift4K) | (va & (kPageSize4K - 1));
}

Mmu::BatchResult
Mmu::lookupBatch(const std::vector<Vpn> &vpns, int warp_id)
{
    BatchResult out;
    lookupBatchInto(out, vpns, warp_id);
    return out;
}

void
Mmu::lookupBatchInto(BatchResult &out, const std::vector<Vpn> &vpns,
                     int warp_id)
{
    GPUMMU_ASSERT(cfg_.enabled, "lookupBatch on a disabled MMU");
    out.lookups.clear();
    out.extraCycles = 0;
    out.allHit = true;
    out.lookups.reserve(vpns.size());
    for (Vpn vpn : vpns) {
        auto res = tlb_.lookup(asidKey(asid_, vpn), warp_id);
        if (res.hit && checker_)
            checker_->onTlbHit(asidKey(asid_, vpn), res.ppn,
                               pageShift_);
        VpnLookup vl;
        vl.vpn = vpn;
        vl.hit = res.hit;
        vl.depth = res.depth;
        vl.frameBase = res.ppn;
        vl.history = res.history;
        vl.historyUsed = res.historyUsed;
        out.allHit = out.allHit && res.hit;
        out.lookups.push_back(vl);
    }

    // Port serialization: the first `ports` lookups ride along with
    // the L1 access for free; each further group of `ports` costs a
    // cycle. Oversized or overported arrays cost CACTI penalties on
    // every access.
    const unsigned ports = cfg_.tlb.ports;
    if (!vpns.empty()) {
        const Cycle groups =
            (static_cast<Cycle>(vpns.size()) + ports - 1) / ports;
        out.extraCycles = (groups - 1) +
                          cfg_.cacti.accessPenalty(cfg_.tlb.entries,
                                                   cfg_.tlb.ports);
    }
}

bool
Mmu::memAvailable() const
{
    if (!cfg_.enabled)
        return true;
    if (cfg_.hitUnderMiss)
        return true;
    return !missOutstanding();
}

bool
Mmu::canStartMisses(std::size_t count) const
{
    if (!cfg_.enabled)
        return false;
    // No miss-under-miss: a new miss set may start only when the MMU
    // has fully drained (the paper leaves more aggressive support to
    // future work). A single warp's simultaneous misses count as one
    // "original miss" and always start together.
    if (missOutstanding())
        return false;
    return count <= cfg_.mshrs;
}

void
Mmu::setL2Tlb(L2Tlb *l2)
{
    GPUMMU_ASSERT(cfg_.enabled,
                  "an L2 TLB behind a disabled MMU is unreachable");
    GPUMMU_ASSERT(!missOutstanding(),
                  "setL2Tlb with walks already outstanding");
    GPUMMU_ASSERT(l2 == nullptr || l2->pageShift() == pageShift_,
                  "shared L2 TLB granularity mismatch");
    l2_ = l2;
}

std::pair<std::uint64_t, bool>
Mmu::resolveWalk(const Translation &t) const
{
    const std::uint64_t frame_base =
        t.isLarge ? (t.ppn >> (kPageShift2M - kPageShift4K)) : t.ppn;
    GPUMMU_ASSERT(t.isLarge == as_.usesLargePages(),
                  "page size mismatch between walk and MMU");
    return {frame_base, t.isLarge};
}

bool
Mmu::probeTlb(Vpn vpn) const
{
    return tlb_.probe(asidKey(asid_, vpn));
}

std::vector<Mmu::MissBatch::Tag>::iterator
Mmu::pendingTag(Vpn tag)
{
    auto &pending = batch_.pending;
    auto it = std::find_if(pending.begin(), pending.end(),
                           [tag](const auto &p) { return p.vpn == tag; });
    GPUMMU_ASSERT(it != pending.end(), "walk completion for unknown VPN");
    return it;
}

void
Mmu::finishWalk(Vpn tag, std::uint64_t frame_base, bool is_large,
                Cycle finish)
{
    tlb_.fill(asidKey(asid_, tag), Translation{frame_base, is_large},
              batch_.warp);

    auto it = pendingTag(tag);
    *it = batch_.pending.back();
    batch_.pending.pop_back();

    missLatency_.sample(finish - batch_.start);

    // Every span that missed on this page fills and retires at the
    // same ready cycle.
    if (spans_)
        spans_->closeAllAt(asidKey(asid_, tag), SpanStage::Fill,
                           finish);

    if (!batch_.pending.empty()) {
        batch_.done(tag, frame_base, finish);
        return;
    }
    // The batch has retired, so its last completion may start the
    // next one: run it from a local.
    auto done = std::move(batch_.done);
    done(tag, frame_base, finish);

    if (!missOutstanding() && drainListener_)
        drainListener_();
}

void
Mmu::requestWalks(const std::vector<Vpn> &vpns, int warp_id, Cycle now,
                  WalkDoneFn done)
{
    GPUMMU_ASSERT(cfg_.enabled);
    // No miss under a miss (canStartMisses), so no VPN can merge into
    // an earlier walk: the MMU holds one batch at a time.
    GPUMMU_ASSERT(!missOutstanding(),
                  "requestWalks while a miss batch is in flight");
    GPUMMU_ASSERT(vpns.size() <= cfg_.mshrs, "miss batch exceeds MSHRs");
    batch_.start = now;
    batch_.warp = warp_id;
    batch_.done = std::move(done);
    for (Vpn vpn : vpns)
        batch_.pending.push_back({vpn, false});

    // The walkers operate on 4KB-granularity VPNs; in large-page mode
    // the TLB tag is the 2MB VPN, so expand before walking.
    const unsigned expand = pageShift_ - kPageShift4K;
    std::vector<Vpn> &walk_vpns = walkVpnScratch_;
    walk_vpns.clear();
    Cycle walk_at = now;

    // Shared L2 TLB on the miss path: hits and merges into other
    // cores' in-flight walks complete without touching this core's
    // walkers; the rest walk in one batch once the slowest lookup
    // has resolved (the L2 arbitrates its ports across cores).
    for (auto &p : batch_.pending) {
        if (l2_ != nullptr) {
            auto res = l2_->access(
                asidKey(asid_, p.vpn), now,
                [this](Vpn t, std::uint64_t frame, bool large,
                       Cycle ready) {
                    finishWalk(keyLocal(t), frame, large, ready);
                });
            if (res.outcome == L2Tlb::Outcome::Hit ||
                res.outcome == L2Tlb::Outcome::Merged) {
                l2Satisfied_.inc();
                continue;
            }
            p.bypass = res.outcome == L2Tlb::Outcome::Bypass;
            walk_at = std::max(walk_at, res.ready);
        }
        walk_vpns.push_back(p.vpn << expand);
    }
    if (walk_vpns.empty())
        return;

    walkers_.requestBatchFor(
        as_.pageTable(), asid_, walk_vpns, walk_at,
        [this, expand](Vpn vpn4k, const Translation &walked,
                       Cycle finish) {
            const Vpn tag = vpn4k >> expand;
            auto [frame_base, is_large] = resolveWalk(walked);
            const Translation t{frame_base, is_large};
            if (l2_ == nullptr) {
                finishWalk(tag, frame_base, is_large, finish);
            } else if (pendingTag(tag)->bypass) {
                // Walked uncovered (MSHR file was full): install the
                // result for later requesters, complete ourselves.
                l2_->fillBypass(asidKey(asid_, tag), t, finish);
                finishWalk(tag, frame_base, is_large, finish);
            } else {
                // The fill wakes every core merged behind the MSHR,
                // including this one (its wakeup runs finishWalk).
                l2_->fill(asidKey(asid_, tag), t, finish);
            }
        });
}

void
Mmu::shootdown()
{
    shootdowns_.inc();
    tlb_.flush();
    if (l2_ != nullptr)
        l2_->flush();
}

void
Mmu::checkEndOfKernel() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(!missOutstanding(), batch_.pending.size(),
                  " VPNs still outstanding in the MMU at kernel end");
    walkers_.checkDrained();
    tlb_.checkSweep();
}

void
Mmu::endKernel()
{
    checkEndOfKernel();
    walkers_.onKernelDrained();
}

void
Mmu::regStats(StatRegistry &reg, const std::string &prefix)
{
    tlb_.regStats(reg, prefix + ".tlb");
    walkers_.regStats(reg, prefix + ".ptw");
    reg.addCounter(prefix + ".merged_walks", &mergedWalks_);
    reg.addCounter(prefix + ".shootdowns", &shootdowns_);
    reg.addCounter(prefix + ".l2tlb_satisfied", &l2Satisfied_);
    reg.addHistogram(prefix + ".miss_latency", &missLatency_);
}

} // namespace gpummu
