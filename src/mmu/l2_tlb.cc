#include "mmu/l2_tlb.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "trace/trace.hh"

namespace gpummu {

L2Tlb::L2Tlb(const L2TlbConfig &cfg, const PageTable &pt,
             EventQueue &eq, unsigned page_shift)
    : cfg_(cfg), pageShift_(page_shift), eq_(eq),
      array_(cfg.entries, cfg.ways),
      // Sized once for the MSHR file. Live MSHRs are also bounded by
      // the cores' in-flight misses, so an outsized file presizes for
      // at most 4096; the table would grow past that if ever needed.
      mshrs_(std::min<std::size_t>(cfg.mshrs, 4096))
{
    GPUMMU_ASSERT(cfg.ports > 0 && cfg.mshrs > 0 && cfg.lookupInterval > 0);
    portFreeAt_.assign(cfg.ports, 0);
    if (cfg_.checkInvariants)
        checker_ = std::make_unique<InvariantChecker>(pt);
}

Cycle
L2Tlb::reservePort(Cycle now)
{
    // Deterministic arbitration: the earliest-free port wins, ties
    // broken by index.
    auto it = std::min_element(portFreeAt_.begin(), portFreeAt_.end());
    const Cycle issue = std::max(now, *it);
    *it = issue + cfg_.lookupInterval;
    return issue;
}

L2Tlb::AccessResult
L2Tlb::access(Vpn tag, Cycle now, WakeFn done)
{
    lookups_.inc();
    const Cycle issue = reservePort(now);
    const Cycle ready = issue + cfg_.hitLatency;

    // The miss-to-issue gap is port queueing; the stages below stamp
    // the disposition on top of it.
    if (spans_)
        spans_->stageAt(tag, SpanStage::L2Lookup, issue);

    auto res = array_.lookup(tag);
    if (res.hit) {
        hits_.inc();
        if (checker_)
            checker_->onTlbHit(tag, res.payload->ppn, pageShift_);
        if (trace_)
            trace_->instantAt(TraceCat::L2Tlb, "l2tlb_hit", traceTid_,
                              issue, "vpn", tag);
        if (spans_)
            spans_->stageAt(tag, SpanStage::L2Hit, ready);
        std::size_t slot;
        if (freeHitWakes_.empty()) {
            slot = hitWakes_.size();
            hitWakes_.emplace_back();
        } else {
            slot = freeHitWakes_.back();
            freeHitWakes_.pop_back();
        }
        hitWakes_[slot] = HitWake{tag, *res.payload, std::move(done)};
        eq_.schedule(ready, [this, slot] { fireHitWake(slot); });
        return AccessResult{Outcome::Hit, ready};
    }

    if (trace_)
        trace_->instantAt(TraceCat::L2Tlb, "l2tlb_miss", traceTid_,
                          issue, "vpn", tag);

    if (mshrs_.join(tag, done)) {
        // Another core already walks this VPN; its fill wakes us.
        mshrMerges_.inc();
        if (checker_)
            checker_->onMshrMerge(tag);
        if (trace_)
            trace_->instantAt(TraceCat::L2Tlb, "mshr_merge", traceTid_,
                              issue, "vpn", tag);
        // Beside the merge counter: merged-span count == mshr_merges.
        if (spans_)
            spans_->stageAt(tag, SpanStage::L2Merge, issue);
        return AccessResult{Outcome::Merged, ready};
    }

    if (mshrs_.size() >= cfg_.mshrs) {
        // Structural: no MSHR to track the walk, so the requester
        // walks uncovered. fillBypass() still installs the result.
        mshrBypasses_.inc();
        if (trace_)
            trace_->instantAt(TraceCat::L2Tlb, "mshr_bypass",
                              traceTid_, issue, "vpn", tag);
        if (spans_)
            spans_->stageAt(tag, SpanStage::L2Bypass, issue);
        return AccessResult{Outcome::Bypass, ready};
    }

    if (checker_)
        checker_->onMshrAlloc(tag);
    if (trace_) {
        trace_->instantAt(TraceCat::L2Tlb, "mshr_alloc", traceTid_,
                          issue, "vpn", tag);
        trace_->counter(TraceCat::L2Tlb, "mshrs_active", traceTid_,
                        mshrs_.size() + 1);
    }
    if (spans_)
        spans_->stageAt(tag, SpanStage::L2NeedWalk, issue);
    mshrs_.open(tag, false, std::move(done));
    return AccessResult{Outcome::NeedWalk, ready};
}

void
L2Tlb::fireHitWake(std::size_t slot)
{
    // Free the slot before the callback: done() may access() this
    // L2 again and take the slot for its own hit.
    HitWake &h = hitWakes_[slot];
    const Vpn tag = h.tag;
    const Translation t = h.t;
    WakeFn done = std::move(h.done);
    freeHitWakes_.push_back(slot);
    done(tag, t.ppn, t.isLarge, eq_.now());
}

void
L2Tlb::install(Vpn tag, const Translation &t)
{
    if (checker_)
        checker_->onTlbFill(tag, t.ppn, t.isLarge, pageShift_);
    fills_.inc();
    if (trace_)
        trace_->instant(TraceCat::L2Tlb, "l2tlb_fill", traceTid_,
                        "vpn", tag, "ppn", t.ppn);
    auto victim = array_.insert(tag, t);
    if (victim) {
        evictions_.inc();
        if (trace_)
            trace_->instant(TraceCat::L2Tlb, "l2tlb_evict", traceTid_,
                            "vpn", victim->tag);
        if (onEvict_)
            onEvict_(victim->tag);
    }
    if (checker_) {
        checker_->beginTlbSweep();
        array_.forEach([this](std::size_t set, std::uint64_t tg,
                              const Translation &e) {
            checker_->onTlbEntry(set, tg, e.ppn, e.isLarge,
                                 pageShift_);
        });
        checker_->endTlbSweep();
    }
}

void
L2Tlb::fill(Vpn tag, const Translation &t, Cycle ready)
{
    // A shootdown between the MSHR's walk issue and this fill poisons
    // the tag: the walk read the page table while the mapping was
    // live, so its waiters are still woken (their access predates the
    // unmap), but the now-stale translation must not be installed.
    const bool *poisoned = mshrs_.find(tag);
    GPUMMU_ASSERT(poisoned != nullptr,
                  "L2 TLB fill for VPN ", tag, " without an MSHR");
    if (!*poisoned)
        install(tag, t);
    // The count once this MSHR retires, before its waiters run.
    if (trace_)
        trace_->counter(TraceCat::L2Tlb, "mshrs_active", traceTid_,
                        mshrs_.size() - 1);
    std::uint64_t woken = 0;
    mshrs_.take(tag, [&](WakeFn &fn) {
        ++woken;
        if (checker_)
            checker_->onMshrWake(tag);
        if (trace_)
            trace_->instant(TraceCat::L2Tlb, "mshr_wake", traceTid_,
                            "vpn", tag);
        fn(tag, t.ppn, t.isLarge, ready);
    });
    wakeupsPerFill_.sample(woken);
}

void
L2Tlb::fillBypass(Vpn tag, const Translation &t, Cycle ready)
{
    (void)ready;
    // An MSHR for this tag may exist by now: the bypass was granted
    // while the file was full, and another core allocated one for
    // the same VPN once slots freed. Leave it alone - its owning
    // walk will fill() and wake its waiters; the second install is
    // in-place.
    install(tag, t);
}

void
L2Tlb::flush()
{
    flushes_.inc();
    std::vector<Vpn> victims;
    array_.forEach([&victims](std::size_t, std::uint64_t tag,
                              const Translation &) {
        victims.push_back(tag);
    });
    array_.flush();
    for (Vpn tag : victims) {
        if (trace_)
            trace_->instant(TraceCat::L2Tlb, "l2tlb_evict", traceTid_,
                            "vpn", tag);
        if (onEvict_)
            onEvict_(tag);
    }
}

std::size_t
L2Tlb::invalidateMatching(const std::function<bool(std::uint64_t)> &pred)
{
    auto victims = array_.removeIf(
        [&pred](std::uint64_t tag, const Translation &) {
            return pred(tag);
        });
    for (const auto &v : victims) {
        if (trace_)
            trace_->instant(TraceCat::L2Tlb, "l2tlb_evict", traceTid_,
                            "vpn", v.tag);
        if (onEvict_)
            onEvict_(v.tag);
    }
    mshrs_.forEach([&pred](Vpn tag, bool &poisoned) {
        if (pred(tag))
            poisoned = true;
    });
    return victims.size();
}

std::size_t
L2Tlb::poisonedMshrs() const
{
    std::size_t n = 0;
    mshrs_.forEach([&n](Vpn, bool poisoned) { n += poisoned; });
    return n;
}

void
L2Tlb::checkEndOfKernel() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(mshrs_.empty(), mshrs_.size(),
                  " translation MSHRs still live at kernel end "
                  "(smallest VPN tag ", mshrs_.smallestKey(), ")");
    checker_->checkMshrsDrained();
    checker_->beginTlbSweep();
    array_.forEach([this](std::size_t set, std::uint64_t tag,
                          const Translation &e) {
        checker_->onTlbEntry(set, tag, e.ppn, e.isLarge, pageShift_);
    });
    checker_->endTlbSweep();
}

void
L2Tlb::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".lookups", &lookups_);
    reg.addCounter(prefix + ".hits", &hits_);
    reg.addCounter(prefix + ".mshr_merges", &mshrMerges_);
    reg.addCounter(prefix + ".mshr_bypasses", &mshrBypasses_);
    reg.addCounter(prefix + ".fills", &fills_);
    reg.addCounter(prefix + ".evictions", &evictions_);
    reg.addCounter(prefix + ".flushes", &flushes_);
    reg.addHistogram(prefix + ".wakeups_per_fill", &wakeupsPerFill_);
}

} // namespace gpummu
