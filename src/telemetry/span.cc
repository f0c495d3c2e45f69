#include "telemetry/span.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace gpummu {

const char *
spanStageName(SpanStage stage)
{
    switch (stage) {
      case SpanStage::L1Lookup:
        return "l1_lookup";
      case SpanStage::L1Hit:
        return "l1_hit";
      case SpanStage::L1Miss:
        return "l1_miss";
      case SpanStage::L2Lookup:
        return "l2_lookup";
      case SpanStage::L2Hit:
        return "l2_hit";
      case SpanStage::L2Merge:
        return "l2_merge";
      case SpanStage::L2Bypass:
        return "l2_bypass";
      case SpanStage::L2NeedWalk:
        return "l2_need_walk";
      case SpanStage::WalkEnqueue:
        return "walk_enqueue";
      case SpanStage::WalkGrant:
        return "walk_grant";
      case SpanStage::WalkDone:
        return "walk_done";
      case SpanStage::IommuDepart:
        return "iommu_depart";
      case SpanStage::IommuLookup:
        return "iommu_lookup";
      case SpanStage::IommuHit:
        return "iommu_hit";
      case SpanStage::IommuMerge:
        return "iommu_merge";
      case SpanStage::IommuFault:
        return "iommu_fault";
      case SpanStage::Fill:
        return "fill";
    }
    GPUMMU_PANIC("unknown span stage");
}

bool
spanStageQueueing(SpanStage stage)
{
    // An arrival interval *ending* at one of these stages was spent
    // waiting in a queue: enqueue->grant at the walkers, miss->port
    // issue at the shared L2 TLB, depart->probe (interconnect + port)
    // at the IOMMU. Everything else is service time.
    return stage == SpanStage::WalkGrant ||
           stage == SpanStage::L2Lookup ||
           stage == SpanStage::IommuLookup;
}

namespace {

const char *
spanWalkRefName(SpanWalkRef where)
{
    switch (where) {
      case SpanWalkRef::Pwc:
        return "pwc";
      case SpanWalkRef::L2:
        return "l2";
      case SpanWalkRef::Dram:
        return "dram";
    }
    GPUMMU_PANIC("unknown walk-ref class");
}

} // namespace

SpanTracker::SpanTracker(std::size_t top_k)
    : topKLimit_(top_k == 0 ? 1 : top_k)
{
}

Cycle
SpanTracker::nowFromClock() const
{
    return clock_ != nullptr ? clock_->now() : 0;
}

SpanTracker::OpenSpan *
SpanTracker::newest(std::uint64_t key)
{
    auto it = open_.find(key);
    if (it == open_.end() || it->second.empty())
        return nullptr;
    auto sp = spans_.find(it->second.back());
    GPUMMU_ASSERT(sp != spans_.end());
    return &sp->second;
}

void
SpanTracker::record(OpenSpan &sp, SpanStage stage, Cycle at)
{
    // Timelines stay monotonic even when a hook reports an earlier
    // issue cycle than the previous transition (a pre-reserved port):
    // clamping keeps the telescoped intervals exact.
    if (!sp.timeline.empty() && at < sp.timeline.back().cycle)
        at = sp.timeline.back().cycle;
    sp.timeline.push_back(StageEvent{stage, at});
    ++stageCounts_[static_cast<std::size_t>(stage)];
}

void
SpanTracker::openAt(std::uint64_t key, SpanStage stage, Cycle at,
                    int tid)
{
    const std::uint64_t id = nextId_++;
    ++opened_;
    OpenSpan &sp = spans_[id];
    sp.key = key;
    sp.tid = tid;
    sp.open = at;
    record(sp, stage, at);
    open_[key].push_back(id);
    if (sink_ != nullptr)
        sink_->flow('s', TraceCat::Core, "xlat", tid, at, id);
}

void
SpanTracker::openNow(std::uint64_t key, SpanStage stage, int tid)
{
    openAt(key, stage, nowFromClock(), tid);
}

void
SpanTracker::openOrStageAt(std::uint64_t key, SpanStage stage,
                           Cycle at, int tid)
{
    if (newest(key) != nullptr)
        stageAt(key, stage, at);
    else
        openAt(key, stage, at, tid);
}

void
SpanTracker::stageAt(std::uint64_t key, SpanStage stage, Cycle at)
{
    OpenSpan *sp = newest(key);
    if (sp == nullptr)
        return;
    record(*sp, stage, at);
    if (sink_ != nullptr) {
        auto it = open_.find(key);
        sink_->flow('t', TraceCat::Core, "xlat", sp->tid,
                    sp->timeline.back().cycle, it->second.back());
    }
}

void
SpanTracker::stageNow(std::uint64_t key, SpanStage stage)
{
    stageAt(key, stage, nowFromClock());
}

void
SpanTracker::closeSpan(std::uint64_t id, SpanStage stage, Cycle at)
{
    auto it = spans_.find(id);
    GPUMMU_ASSERT(it != spans_.end());
    OpenSpan &sp = it->second;
    record(sp, stage, at);

    ClosedSpan done;
    done.id = id;
    done.key = sp.key;
    done.tid = sp.tid;
    done.open = sp.open;
    done.close = sp.timeline.back().cycle;
    // Telescoped arrival intervals: each transition is attributed
    // the time since the previous one, so per-stage sums equal the
    // end-to-end latency exactly (the opening event's interval is
    // zero by construction and is not sampled).
    Cycle prev = sp.open;
    for (std::size_t i = 1; i < sp.timeline.size(); ++i) {
        const StageEvent &ev = sp.timeline[i];
        const Cycle d = ev.cycle - prev;
        stageHists_[static_cast<std::size_t>(ev.stage)].sample(d);
        if (spanStageQueueing(ev.stage))
            done.queueing += d;
        else
            done.service += d;
        prev = ev.cycle;
    }
    endToEnd_.sample(done.latency());
    queueing_.sample(done.queueing);
    service_.sample(done.service);
    perAsid_[keyAsid(done.key)].sample(done.latency());
    ++closed_;

    if (sink_ != nullptr)
        sink_->flow('f', TraceCat::Core, "xlat", done.tid, done.close,
                    id);

    done.timeline = std::move(sp.timeline);
    spans_.erase(it);
    considerTopK(std::move(done));
}

void
SpanTracker::closeNewestAt(std::uint64_t key, SpanStage stage,
                           Cycle at)
{
    auto it = open_.find(key);
    if (it == open_.end() || it->second.empty())
        return;
    const std::uint64_t id = it->second.back();
    it->second.pop_back();
    if (it->second.empty())
        open_.erase(it);
    closeSpan(id, stage, at);
}

void
SpanTracker::closeNewestNow(std::uint64_t key, SpanStage stage)
{
    closeNewestAt(key, stage, nowFromClock());
}

void
SpanTracker::closeAllAt(std::uint64_t key, SpanStage stage, Cycle at)
{
    auto it = open_.find(key);
    if (it == open_.end())
        return;
    // Oldest first so span ids retire in open order at equal cycles.
    std::vector<std::uint64_t> ids = std::move(it->second);
    open_.erase(it);
    for (std::uint64_t id : ids)
        closeSpan(id, stage, at);
}

void
SpanTracker::walkRef(unsigned level, SpanWalkRef where)
{
    if (level >= walkRefs_.size())
        level = static_cast<unsigned>(walkRefs_.size()) - 1;
    ++walkRefs_[level][static_cast<std::size_t>(where)];
}

std::uint64_t
SpanTracker::walkRefs(SpanWalkRef where) const
{
    std::uint64_t n = 0;
    for (const auto &lvl : walkRefs_)
        n += lvl[static_cast<std::size_t>(where)];
    return n;
}

std::uint64_t
SpanTracker::walkRefsTotal() const
{
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < kNumSpanWalkRefs; ++w)
        n += walkRefs(static_cast<SpanWalkRef>(w));
    return n;
}

void
SpanTracker::considerTopK(ClosedSpan &&done)
{
    // Sorted worst-first; ties break on earlier open, then lower id,
    // so the retained set is identical across runs.
    auto slower = [](const ClosedSpan &a, const ClosedSpan &b) {
        if (a.latency() != b.latency())
            return a.latency() > b.latency();
        if (a.open != b.open)
            return a.open < b.open;
        return a.id < b.id;
    };
    if (topK_.size() >= topKLimit_ && slower(topK_.back(), done))
        return;
    auto pos =
        std::lower_bound(topK_.begin(), topK_.end(), done, slower);
    topK_.insert(pos, std::move(done));
    if (topK_.size() > topKLimit_)
        topK_.pop_back();
}

namespace {

/** One aggregate row of the stage/summary tables. */
struct StatRow
{
    std::string name;
    std::string cls;
    const Histogram *h;
};

std::vector<StatRow>
stageRows(const SpanTracker &t)
{
    std::vector<StatRow> rows;
    for (std::size_t s = 0; s < kNumSpanStages; ++s) {
        const auto stage = static_cast<SpanStage>(s);
        const Histogram &h = t.stageHist(stage);
        if (h.count() == 0)
            continue;
        rows.push_back(StatRow{spanStageName(stage),
                               spanStageQueueing(stage) ? "queueing"
                                                        : "service",
                               &h});
    }
    rows.push_back(StatRow{"queueing", "total", &t.queueing()});
    rows.push_back(StatRow{"service", "total", &t.service()});
    rows.push_back(StatRow{"end_to_end", "total", &t.endToEnd()});
    return rows;
}

void
writeTimeline(std::ostream &os,
              const SpanTracker::ClosedSpan &sp, char sep)
{
    for (std::size_t i = 0; i < sp.timeline.size(); ++i) {
        if (i != 0)
            os << sep;
        os << spanStageName(sp.timeline[i].stage) << "@+"
           << (sp.timeline[i].cycle - sp.open);
    }
}

} // namespace

void
SpanTracker::writeSummary(std::ostream &os) const
{
    os << "translation spans: " << opened_ << " opened, " << closed_
       << " closed, " << spansOpen() << " open at end; walk refs "
       << walkRefsTotal() << " (pwc " << walkRefs(SpanWalkRef::Pwc)
       << " / l2 " << walkRefs(SpanWalkRef::L2) << " / dram "
       << walkRefs(SpanWalkRef::Dram) << ")\n";
    if (closed_ == 0)
        return;

    os << std::left << std::setw(14) << "stage" << std::setw(10)
       << "class" << std::right << std::setw(12) << "count"
       << std::setw(14) << "cycles" << std::setw(10) << "mean"
       << std::setw(8) << "p50" << std::setw(8) << "p95"
       << std::setw(8) << "p99" << std::setw(8) << "max" << "\n";
    for (const StatRow &r : stageRows(*this)) {
        const Histogram &h = *r.h;
        os << std::left << std::setw(14) << r.name << std::setw(10)
           << r.cls << std::right << std::setw(12) << h.count()
           << std::setw(14) << h.sum() << std::setw(10) << std::fixed
           << std::setprecision(1) << h.mean() << std::setw(8)
           << std::setprecision(0) << h.percentile(0.50)
           << std::setw(8) << h.percentile(0.95) << std::setw(8)
           << h.percentile(0.99) << std::setw(8)
           << static_cast<double>(h.max()) << "\n";
        os.unsetf(std::ios::fixed);
    }

    const double total = static_cast<double>(queueing_.sum()) +
                         static_cast<double>(service_.sum());
    if (total > 0.0) {
        os << "queueing vs service: "
           << std::fixed << std::setprecision(1)
           << 100.0 * static_cast<double>(queueing_.sum()) / total
           << "% queueing / "
           << 100.0 * static_cast<double>(service_.sum()) / total
           << "% service of " << static_cast<std::uint64_t>(total)
           << " decomposed cycles\n";
        os.unsetf(std::ios::fixed);
    }

    if (perAsid_.size() > 1) {
        os << "per-asid end-to-end:\n";
        for (const auto &[asid, h] : perAsid_) {
            os << "  asid " << asid << ": " << h.count()
               << " spans, mean " << std::fixed
               << std::setprecision(1) << h.mean() << ", p95 "
               << std::setprecision(0) << h.percentile(0.95)
               << ", max " << static_cast<double>(h.max()) << "\n";
            os.unsetf(std::ios::fixed);
        }
    }

    const std::size_t show = std::min<std::size_t>(5, topK_.size());
    os << "slowest " << show << " spans:\n";
    for (std::size_t i = 0; i < show; ++i) {
        const ClosedSpan &sp = topK_[i];
        os << "  #" << i + 1 << " asid " << keyAsid(sp.key)
           << " vpn 0x" << std::hex << keyLocal(sp.key) << std::dec
           << " tid " << sp.tid << " open " << sp.open << " lat "
           << sp.latency() << " (q " << sp.queueing << " / s "
           << sp.service << "): ";
        writeTimeline(os, sp, ' ');
        os << "\n";
    }
}

void
SpanTracker::writeCsv(std::ostream &os) const
{
    os << "# stages\n"
          "stage,class,count,cycles,mean,p50,p95,p99,min,max\n";
    for (const StatRow &r : stageRows(*this)) {
        const Histogram &h = *r.h;
        os << r.name << ',' << r.cls << ',' << h.count() << ','
           << h.sum() << ',' << jsonNum(h.mean()) << ','
           << jsonNum(h.percentile(0.50)) << ','
           << jsonNum(h.percentile(0.95)) << ','
           << jsonNum(h.percentile(0.99)) << ',' << h.min() << ','
           << h.max() << "\n";
    }
    os << "# walk_refs\nlevel,pwc,l2,dram\n";
    for (std::size_t lvl = 0; lvl < walkRefs_.size(); ++lvl) {
        os << lvl << ',' << walkRefs_[lvl][0] << ','
           << walkRefs_[lvl][1] << ',' << walkRefs_[lvl][2] << "\n";
    }
    os << "# per_asid\nasid,count,cycles,mean,p50,p95,p99,max\n";
    for (const auto &[asid, h] : perAsid_) {
        os << asid << ',' << h.count() << ',' << h.sum() << ','
           << jsonNum(h.mean()) << ',' << jsonNum(h.percentile(0.50))
           << ',' << jsonNum(h.percentile(0.95)) << ','
           << jsonNum(h.percentile(0.99)) << ',' << h.max() << "\n";
    }
    os << "# top_spans\n"
          "rank,id,asid,vpn,tid,open,close,latency,queueing,service,"
          "timeline\n";
    for (std::size_t i = 0; i < topK_.size(); ++i) {
        const ClosedSpan &sp = topK_[i];
        os << i + 1 << ',' << sp.id << ',' << keyAsid(sp.key)
           << ",0x" << std::hex << keyLocal(sp.key) << std::dec << ','
           << sp.tid << ',' << sp.open << ',' << sp.close << ','
           << sp.latency() << ',' << sp.queueing << ',' << sp.service
           << ',';
        writeTimeline(os, sp, '|');
        os << "\n";
    }
}

bool
SpanTracker::writeCsvFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    writeCsv(f);
    return f.good();
}

namespace {

void
jsonHist(std::ostream &os, const Histogram &h)
{
    os << "{\"count\":" << h.count() << ",\"cycles\":" << h.sum()
       << ",\"mean\":" << jsonNum(h.mean())
       << ",\"p50\":" << jsonNum(h.percentile(0.50))
       << ",\"p95\":" << jsonNum(h.percentile(0.95))
       << ",\"p99\":" << jsonNum(h.percentile(0.99))
       << ",\"min\":" << h.min() << ",\"max\":" << h.max() << "}";
}

} // namespace

void
SpanTracker::writeJson(std::ostream &os) const
{
    os << "{\"meta\":{\"spans_opened\":" << opened_
       << ",\"spans_closed\":" << closed_
       << ",\"spans_open_at_end\":" << spansOpen()
       << ",\"walk_refs\":{\"total\":" << walkRefsTotal();
    for (std::size_t w = 0; w < kNumSpanWalkRefs; ++w) {
        const auto where = static_cast<SpanWalkRef>(w);
        os << ",\"" << spanWalkRefName(where)
           << "\":" << walkRefs(where);
    }
    os << "}},\"stages\":[";
    bool first = true;
    for (const StatRow &r : stageRows(*this)) {
        os << (first ? "" : ",") << "{\"stage\":\"" << r.name
           << "\",\"class\":\"" << r.cls << "\",\"stats\":";
        jsonHist(os, *r.h);
        os << "}";
        first = false;
    }
    os << "],\"per_asid\":[";
    first = true;
    for (const auto &[asid, h] : perAsid_) {
        os << (first ? "" : ",") << "{\"asid\":" << asid
           << ",\"stats\":";
        jsonHist(os, h);
        os << "}";
        first = false;
    }
    os << "],\"top_spans\":[";
    for (std::size_t i = 0; i < topK_.size(); ++i) {
        const ClosedSpan &sp = topK_[i];
        os << (i == 0 ? "" : ",") << "{\"id\":" << sp.id
           << ",\"asid\":" << keyAsid(sp.key)
           << ",\"vpn\":" << keyLocal(sp.key) << ",\"tid\":" << sp.tid
           << ",\"open\":" << sp.open << ",\"close\":" << sp.close
           << ",\"latency\":" << sp.latency()
           << ",\"queueing\":" << sp.queueing
           << ",\"service\":" << sp.service << ",\"timeline\":[";
        for (std::size_t j = 0; j < sp.timeline.size(); ++j) {
            os << (j == 0 ? "" : ",") << "{\"stage\":\""
               << spanStageName(sp.timeline[j].stage)
               << "\",\"cycle\":" << sp.timeline[j].cycle << "}";
        }
        os << "]}";
    }
    os << "]}";
}

bool
SpanTracker::writeJsonFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    writeJson(f);
    return f.good();
}

} // namespace gpummu
