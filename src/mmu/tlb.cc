#include "mmu/tlb.hh"

#include "check/invariant_checker.hh"
#include "telemetry/span.hh"
#include "trace/trace.hh"

namespace gpummu {

Tlb::Tlb(const TlbConfig &cfg) : cfg_(cfg), array_(cfg.entries, cfg.ways)
{
    GPUMMU_ASSERT(cfg.ports > 0);
}

Tlb::LookupResult
Tlb::lookup(Vpn vpn, int warp_id, bool record)
{
    if (record) {
        accesses_.inc();
        // The span opens beside the access counter so "spans opened
        // == tlb accesses" holds exactly (conservation check).
        if (spans_)
            spans_->openNow(vpn, SpanStage::L1Lookup, spanTid_);
    }
    auto res = array_.lookup(vpn);
    LookupResult out;
    if (!res.hit) {
        if (trace_ && record)
            trace_->instant(TraceCat::Tlb, "tlb_miss", traceTid_,
                            "vpn", vpn, "warp",
                            static_cast<std::uint64_t>(warp_id));
        if (spans_ && record)
            spans_->stageNow(vpn, SpanStage::L1Miss);
        return out;
    }

    if (record)
        hits_.inc();
    if (trace_ && record)
        trace_->instant(TraceCat::Tlb, "tlb_hit", traceTid_, "vpn",
                        vpn, "warp",
                        static_cast<std::uint64_t>(warp_id));
    if (spans_ && record)
        spans_->closeNewestNow(vpn, SpanStage::L1Hit);
    out.hit = true;
    out.depth = res.depth;
    out.ppn = res.payload->ppn;
    out.isLarge = res.payload->isLarge;
    out.history = res.payload->warpHistory;
    out.historyUsed = res.payload->historyUsed;

    // Record this warp in the entry's history (most recent first),
    // dropping the oldest when full. Duplicate of the head is not
    // re-pushed to keep the history informative. Non-recording
    // probes (record=false) must not mutate the history either: the
    // schedulers consume it, and a what-if probe is not an access.
    if (record && cfg_.historyLength > 0 && warp_id >= 0 &&
        (res.payload->historyUsed == 0 ||
         res.payload->warpHistory[0] != warp_id)) {
        auto &h = res.payload->warpHistory;
        const unsigned len = std::min<unsigned>(cfg_.historyLength,
                                                h.size());
        for (unsigned i = len - 1; i > 0; --i)
            h[i] = h[i - 1];
        h[0] = warp_id;
        if (res.payload->historyUsed < len)
            ++res.payload->historyUsed;
    }
    return out;
}

bool
Tlb::probe(Vpn vpn) const
{
    return array_.peek(vpn) != nullptr;
}

void
Tlb::fill(Vpn vpn, const Translation &t, int alloc_warp)
{
    if (checker_)
        checker_->onTlbFill(vpn, t.ppn, t.isLarge, checkShift_);
    TlbEntryInfo info;
    info.ppn = t.ppn;
    info.isLarge = t.isLarge;
    info.allocWarp = alloc_warp;
    if (trace_)
        trace_->instant(TraceCat::Tlb, "tlb_fill", traceTid_, "vpn",
                        vpn, "ppn", t.ppn);
    auto victim = array_.insert(vpn, info);
    if (victim) {
        if (trace_)
            trace_->instant(TraceCat::Tlb, "tlb_evict", traceTid_,
                            "vpn", victim->tag);
        if (onEvict_)
            onEvict_(victim->tag, victim->payload.allocWarp);
    }
    checkSweep();
}

void
Tlb::checkSweep() const
{
    if (!checker_)
        return;
    checker_->beginTlbSweep();
    array_.forEach([this](std::size_t set, std::uint64_t tag,
                          const TlbEntryInfo &e) {
        checker_->onTlbEntry(set, tag, e.ppn, e.isLarge, checkShift_);
    });
    checker_->endTlbSweep();
}

std::size_t
Tlb::invalidateMatching(
    const std::function<bool(std::uint64_t, const TlbEntryInfo &)> &pred)
{
    // Same listener discipline as flush(): every discarded entry is
    // an eviction the schedulers' bookkeeping must see.
    auto victims = array_.removeIf(pred);
    for (const auto &v : victims) {
        if (trace_)
            trace_->instant(TraceCat::Tlb, "tlb_evict", traceTid_,
                            "vpn", v.tag);
        if (onEvict_)
            onEvict_(v.tag, v.payload.allocWarp);
    }
    checkSweep();
    return victims.size();
}

void
Tlb::flush()
{
    flushes_.inc();
    // A flush evicts every resident entry; the eviction listener must
    // see each one, or the schedulers' lost-locality bookkeeping
    // (CCWS/TCWS victim tag arrays) silently leaks the whole TLB
    // contents on every shootdown while ordinary capacity evictions
    // are scored. Snapshot first: the listener may probe the TLB.
    std::vector<std::pair<Vpn, int>> victims;
    array_.forEach([&victims](std::size_t, std::uint64_t tag,
                              const TlbEntryInfo &e) {
        victims.emplace_back(tag, e.allocWarp);
    });
    array_.flush();
    for (const auto &[vpn, alloc_warp] : victims) {
        if (trace_)
            trace_->instant(TraceCat::Tlb, "tlb_evict", traceTid_,
                            "vpn", vpn);
        if (onEvict_)
            onEvict_(vpn, alloc_warp);
    }
}

void
Tlb::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".accesses", &accesses_);
    reg.addCounter(prefix + ".hits", &hits_);
    reg.addCounter(prefix + ".flushes", &flushes_);
}

} // namespace gpummu
