#include "mmu/ptw.hh"

#include <algorithm>
#include <tuple>

#include "check/invariant_checker.hh"
#include "mem/request.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

namespace gpummu {

PageWalkers::PageWalkers(const PtwConfig &cfg, const PageTable &pt,
                         MemorySystem &mem, EventQueue &eq)
    : cfg_(cfg), pt_(pt), mem_(mem), eq_(eq),
      walkers_(cfg.scheduling ? 1 : cfg.numWalkers),
      pwc_(std::max<std::size_t>(cfg.pwcLines, 1), cfg.pwcWays)
{
    GPUMMU_ASSERT(cfg.numWalkers > 0);
    for (Walker &w : walkers_)
        w.pool = this;
}

Cycle
PageWalkers::walkRef(PhysAddr line_addr, unsigned level, Cycle at)
{
    // All walkers share one issue port into the memory system.
    const Cycle issue = std::max(at, portFreeAt_);
    portFreeAt_ = issue + cfg_.portInterval;
    refsIssued_.inc();
    if (trace_)
        trace_->instantAt(TraceCat::Ptw, "walk_ref", traceTid_, issue,
                          "line", line_addr);
    if (checker_)
        checker_->onPagingLine(line_addr, kLineShift);
    Cycle ready;
    SpanWalkRef where;
    const Cycle *filled =
        cfg_.pwcLines > 0 ? pwc_.lookup(line_addr).payload : nullptr;
    if (filled) {
        pwcHits_.inc();
        where = SpanWalkRef::Pwc;
        // The line enters the cache when its fetch is *issued*, so a
        // hit may land while the fill is still in flight from memory;
        // such a hit cannot complete before the fill does (no
        // hit-under-fill optimism).
        ready = std::max(issue + cfg_.pwcHitLatency, *filled);
    } else {
        const auto out = mem_.access(line_addr, false, issue,
                                     AccessSource::PageWalk);
        where = out.dram ? SpanWalkRef::Dram : SpanWalkRef::L2;
        ready = out.readyAt;
        if (cfg_.pwcLines > 0)
            pwc_.insert(line_addr, ready);
    }
    if (heat_)
        heat_->onWalkRef(line_addr, level, heatTid_, where);
    if (spans_)
        spans_->walkRef(level, where);
    return ready;
}

void
PageWalkers::requestBatch(const std::vector<Vpn> &vpns, Cycle now,
                          TimingDoneFn done)
{
    requestBatchFor(pt_, 0, vpns, now,
                    [done = std::move(done)](Vpn vpn, const Translation &,
                                             Cycle finish) {
                        done(vpn, finish);
                    });
}

void
PageWalkers::requestBatchFor(const PageTable &pt, Asid asid,
                             const std::vector<Vpn> &vpns, Cycle now,
                             DoneFn done)
{
    for (Vpn vpn : vpns) {
        if (checker_)
            checker_->onWalkEnqueued(asidKey(asid, vpn));
        if (trace_)
            trace_->instantAt(TraceCat::Ptw, "walk_enqueue",
                              traceTid_, now, "vpn", vpn);
        if (spans_)
            spans_->stageAt(asidKey(asid, vpn >> spanKeyShift_),
                            SpanStage::WalkEnqueue, now);
        queue_.push_back(PendingWalk{vpn, now, done, &pt, asid, {}});
    }
    pump(now);
}

std::size_t
PageWalkers::invalidatePagingLines(const PageTable &pt)
{
    const auto victims =
        pwc_.removeIf([&pt](std::uint64_t line, const Cycle &) {
            return pt.isTableFrame((line << kLineShift) >>
                                   kPageShift4K);
        });
    return victims.size();
}

void
PageWalkers::pump(Cycle now)
{
    for (Walker &w : walkers_) {
        if (queue_.empty())
            return;
        if (!w.busy)
            startBatch(w, now);
    }
}

void
PageWalkers::startBatch(Walker &w, Cycle now)
{
    GPUMMU_ASSERT(!queue_.empty());
    GPUMMU_ASSERT(w.completing == 0,
                  "walker reused with completions pending");
    if (cfg_.scheduling)
        batches_.inc();
    w.walks.clear();
    w.refs.clear();
    w.next = 0;
    // Naive walkers take the oldest walk; the scheduler snapshots the
    // whole queue into one batch (the MSHR scan).
    do {
        PendingWalk &walk = w.walks.emplace_back(
            std::move(queue_.front()));
        queue_.pop_front();
        walk.path = walk.pt->walk(walk.vpn);
    } while (cfg_.scheduling && !queue_.empty());
    inFlight_ += static_cast<unsigned>(w.walks.size());
    if (trace_) {
        const auto walker = static_cast<unsigned>(&w - walkers_.data());
        for (const PendingWalk &walk : w.walks)
            trace_->instantAt(TraceCat::Ptw, "walk_grant", traceTid_,
                              now, "vpn", walk.vpn, "walker", walker);
        trace_->counter(TraceCat::Ptw, "walks_in_flight", traceTid_,
                        inFlight_);
    }
    // Enqueue -> grant is the walker-queueing portion of the span.
    if (spans_) {
        for (const PendingWalk &walk : w.walks)
            spans_->stageAt(asidKey(walk.asid,
                                    walk.vpn >> spanKeyShift_),
                            SpanStage::WalkGrant, now);
    }

    // Comparator tree: within a level, exact repeats become adjacent
    // and are issued once, and same-line entries are issued back to
    // back so the later ones hit the walk cache or the L2 line just
    // fetched (Figs. 8-9). Each level's run is appended in walk order,
    // so it is sorted by (entry, walk) only when its entries are not
    // already ascending.
    const auto by_entry = [](const Ref &a, const Ref &b) {
        return std::tie(a.entry, a.walk) < std::tie(b.entry, b.walk);
    };
    std::uint64_t repeats = 0;
    for (unsigned level = 0; level < kWalkLevels4K; ++level) {
        const std::size_t first = w.refs.size();
        for (std::uint32_t idx = 0; idx < w.walks.size(); ++idx) {
            const WalkPath &path = w.walks[idx].path;
            if (level < path.levels)
                w.refs.push_back(Ref{path.entryAddrs[level], idx,
                                     static_cast<std::uint8_t>(level),
                                     level + 1 == path.levels});
        }
        const auto run = w.refs.begin() +
                         static_cast<std::ptrdiff_t>(first);
        if (!std::is_sorted(run, w.refs.end(), by_entry))
            std::sort(run, w.refs.end(), by_entry);
        for (std::size_t i = first + 1; i < w.refs.size(); ++i)
            repeats += w.refs[i].entry == w.refs[i - 1].entry;
    }
    refsEliminated_.inc(repeats);

    w.busy = true;
    stepLevel(w, now);
}

void
PageWalkers::completeWalk(Walker &w, std::uint32_t idx)
{
    const PendingWalk &walk = w.walks[idx];
    const Cycle now = eq_.now();
    GPUMMU_ASSERT(w.completing > 0 && inFlight_ > 0);
    --w.completing;
    --inFlight_;
    if (trace_) {
        trace_->span(TraceCat::Ptw, "page_walk", traceTid_,
                     walk.enqueued, now - walk.enqueued, "vpn", walk.vpn);
        trace_->counter(TraceCat::Ptw, "walks_in_flight", traceTid_,
                        inFlight_);
    }
    if (checker_)
        checker_->onWalkCompleted(asidKey(walk.asid, walk.vpn));
    // The slot stays busy until its last level event, so done() may
    // start new walks on other walkers or queue them, never here.
    walk.done(walk.vpn, walk.path.result, now);
}

void
PageWalkers::stepLevel(Walker &w, Cycle now)
{
    // One event per radix level: a level's references pipeline at
    // the port rate, the next level waits for this one (the pointer
    // chase). Requests enter the shared memory system near the
    // current simulated cycle; computing the whole batch's
    // timestamps up front would reserve L2/DRAM bandwidth far into
    // the future and distort every other client's latency.
    if (w.next == w.refs.size()) {
        w.busy = false;
        pump(now);
        return;
    }
    const std::size_t first = w.next;
    const unsigned level = w.refs[first].level;
    Cycle ready = now;
    Cycle level_end = now;
    for (; w.next < w.refs.size() && w.refs[w.next].level == level;
         ++w.next) {
        const Ref &ref = w.refs[w.next];
        if (w.next == first || ref.entry != w.refs[w.next - 1].entry) {
            ready = walkRef(lineAddrOf(ref.entry), level, now);
            level_end = std::max(level_end, ready);
        }
        if (!ref.last)
            continue;
        const PendingWalk &walk = w.walks[ref.walk];
        walks_.inc();
        walkLatency_.sample(ready - walk.enqueued);
        if (spans_)
            spans_->stageAt(asidKey(walk.asid, walk.vpn >> spanKeyShift_),
                            SpanStage::WalkDone, ready);
        if (heat_)
            heat_->onWalkComplete(asidKey(walk.asid, walk.vpn), heatTid_,
                                  walk.enqueued, ready);
        ++w.completing;
        const std::uint32_t idx = ref.walk;
        eq_.schedule(ready,
                     [&w, idx] { w.pool->completeWalk(w, idx); });
    }
    eq_.schedule(level_end,
                 [&w] { w.pool->stepLevel(w, w.pool->eq_.now()); });
}

void
PageWalkers::checkDrained() const
{
    if (!checker_)
        return;
    GPUMMU_ASSERT(!busy(), "walker pool busy at kernel end: ",
                  inFlight_, " in flight, ", queue_.size(), " queued");
    checker_->checkWalksDrained();
    pwc_.forEach([this](std::size_t, std::uint64_t line, Cycle) {
        checker_->onPagingLine(line, kLineShift);
    });
}

void
PageWalkers::onKernelDrained()
{
    GPUMMU_ASSERT(!busy(),
                  "kernel-boundary reset with walks in flight: ",
                  inFlight_, " in flight, ", queue_.size(), " queued");
    portFreeAt_ = 0;
}

void
PageWalkers::regStats(StatRegistry &reg, const std::string &prefix)
{
    reg.addCounter(prefix + ".walks", &walks_);
    reg.addCounter(prefix + ".refs_issued", &refsIssued_);
    reg.addCounter(prefix + ".refs_eliminated", &refsEliminated_);
    reg.addCounter(prefix + ".batches", &batches_);
    reg.addCounter(prefix + ".pwc_hits", &pwcHits_);
    reg.addHistogram(prefix + ".walk_latency", &walkLatency_);
}

} // namespace gpummu
