#include "telemetry/telemetry.hh"

#include <algorithm>
#include <bit>
#include <fstream>

#include "sim/logging.hh"

namespace gpummu {

namespace {

/** Stable partial sort used by both top-K tables: hotter first,
 *  address ascending on ties. */
template <typename Map, typename Hotness>
std::vector<std::pair<typename Map::key_type,
                      typename Map::mapped_type>>
topK(const Map &m, std::size_t k, Hotness hot)
{
    std::vector<
        std::pair<typename Map::key_type, typename Map::mapped_type>>
        rows(m.begin(), m.end());
    const std::size_t n = std::min(k, rows.size());
    std::partial_sort(rows.begin(), rows.begin() + n, rows.end(),
                      [&](const auto &a, const auto &b) {
                          const auto ha = hot(a.second);
                          const auto hb = hot(b.second);
                          if (ha != hb)
                              return ha > hb;
                          return a.first < b.first;
                      });
    rows.resize(n);
    return rows;
}

} // namespace

unsigned
HeatProfiler::PageStat::sharers() const
{
    return static_cast<unsigned>(std::popcount(sharerMask));
}

unsigned
HeatProfiler::LineStat::sharers() const
{
    return static_cast<unsigned>(std::popcount(sharerMask));
}

std::uint64_t
HeatProfiler::sharerBit(int tid)
{
    // Bit per walker pool id; negative (GPU-wide walkers, IOMMU) and
    // out-of-range ids share the top bit so the mask stays one word.
    const int bit = (tid < 0 || tid >= 63) ? 63 : tid;
    return std::uint64_t{1} << bit;
}

void
HeatProfiler::onWalkComplete(Vpn vpn, int tid, Cycle enq, Cycle done)
{
    PageStat &p = pages_[vpn];
    const std::uint64_t lat = done >= enq ? done - enq : 0;
    p.walks += 1;
    p.walkCycles += lat;
    p.maxLatency = std::max(p.maxLatency, lat);
    p.sharerMask |= sharerBit(tid);
    totalWalks_ += 1;
}

void
HeatProfiler::onWalkRef(PhysAddr line, unsigned level, int tid,
                        SpanWalkRef where)
{
    LineStat &l = lines_[line];
    l.refs += 1;
    switch (where) {
      case SpanWalkRef::Pwc:
        l.pwcHits += 1;
        break;
      case SpanWalkRef::L2:
        l.l2Refs += 1;
        break;
      case SpanWalkRef::Dram:
        l.dramRefs += 1;
        break;
    }
    l.sharerMask |= sharerBit(tid);
    l.level = std::max(l.level, level);
    totalRefs_ += 1;
}

void
HeatProfiler::onPageDivergence(std::uint64_t pages)
{
    cur_.count += 1;
    cur_.sum += pages;
    cur_.max = std::max(cur_.max, pages);
    totalDivN_ += 1;
}

void
HeatProfiler::rollInterval()
{
    divSeries_.push_back(cur_);
    cur_ = DivergenceInterval{};
}

std::vector<std::pair<Vpn, HeatProfiler::PageStat>>
HeatProfiler::topPages(std::size_t k) const
{
    return topK(pages_, k,
                [](const PageStat &p) { return p.walks; });
}

std::vector<std::pair<PhysAddr, HeatProfiler::LineStat>>
HeatProfiler::topLines(std::size_t k) const
{
    return topK(lines_, k, [](const LineStat &l) { return l.refs; });
}

void
StatSampler::bind(const StatRegistry &reg)
{
    GPUMMU_ASSERT(counters_.empty(),
                  "StatSampler bound twice; one sampler per run");
    reg.forEachCounter(
        [this](const std::string &name, const Counter &c) {
            names_.push_back(name);
            counters_.push_back(&c);
        });
}

void
StatSampler::sample(Cycle start, Cycle end)
{
    Interval iv;
    iv.start = start;
    iv.end = end;
    iv.cum.reserve(counters_.size());
    for (const Counter *c : counters_)
        iv.cum.push_back(c->value());
    intervals_.push_back(std::move(iv));
}

Telemetry::Telemetry(const TelemetryConfig &cfg) : cfg_(cfg)
{
    GPUMMU_ASSERT(cfg_.sampleInterval > 0,
                  "telemetry sample interval must be positive");
    nextBoundary_ = cfg_.sampleInterval;
}

void
Telemetry::begin(const StatRegistry &reg)
{
    sampler_.bind(reg);
}

void
Telemetry::boundary(Cycle at)
{
    sampler_.sample(lastBoundary_, at);
    heat_.rollInterval();
    lastBoundary_ = at;
    nextBoundary_ = at + cfg_.sampleInterval;
}

void
Telemetry::finish(Cycle cycles, const StatRegistry &reg)
{
    if (finished_)
        return;
    finished_ = true;
    runCycles_ = cycles;
    // Close the partial tail interval (end-of-run work - drains,
    // final kernel cycles - lands here rather than vanishing).
    if (cycles > lastBoundary_ || sampler_.intervals().empty())
        boundary(cycles);
    // Stall attribution totals exist only after the cores fold their
    // ledgers at end of run, so they are a finish-time snapshot, not
    // an interval series. Aggregate "<core>.stalls.<reason>" across
    // cores by reason.
    reg.forEachHistogram(
        [this](const std::string &name, const Histogram &h) {
            const auto pos = name.find(".stalls.");
            if (pos == std::string::npos)
                return;
            StallTotal &t =
                stalls_[name.substr(pos + sizeof(".stalls.") - 1)];
            t.warps += h.count();
            t.cycles += h.sum();
        });
}

void
Telemetry::setMeta(const std::string &bench,
                   const std::string &config)
{
    bench_ = bench;
    config_ = config;
}

void
Telemetry::writeCsv(std::ostream &os) const
{
    os << "cycle_start,cycle_end,page_div_n,page_div_sum,page_div_max";
    for (const std::string &name : sampler_.names())
        os << ',' << name;
    os << '\n';
    const auto &ivs = sampler_.intervals();
    const auto &div = heat_.divergenceSeries();
    std::vector<std::uint64_t> prev(sampler_.names().size(), 0);
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        const StatSampler::Interval &iv = ivs[i];
        os << iv.start << ',' << iv.end;
        if (i < div.size()) {
            os << ',' << div[i].count << ',' << div[i].sum << ','
               << div[i].max;
        } else {
            os << ",0,0,0";
        }
        for (std::size_t c = 0; c < iv.cum.size(); ++c) {
            os << ',' << (iv.cum[c] - prev[c]);
            prev[c] = iv.cum[c];
        }
        os << '\n';
    }
}

bool
Telemetry::writeCsvFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    writeCsv(f);
    return f.good();
}

void
Telemetry::writeJson(std::ostream &os) const
{
    os << "{\"meta\":{\"bench\":\"" << jsonEscape(bench_)
       << "\",\"config\":\"" << jsonEscape(config_)
       << "\",\"sample_interval\":" << cfg_.sampleInterval
       << ",\"run_cycles\":" << runCycles_ << "},";

    os << "\"columns\":[";
    bool first = true;
    for (const std::string &name : sampler_.names()) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << '"';
        first = false;
    }
    os << "],\"intervals\":[";
    const auto &ivs = sampler_.intervals();
    const auto &div = heat_.divergenceSeries();
    std::vector<std::uint64_t> prev(sampler_.names().size(), 0);
    for (std::size_t i = 0; i < ivs.size(); ++i) {
        const StatSampler::Interval &iv = ivs[i];
        os << (i ? "," : "") << "{\"start\":" << iv.start
           << ",\"end\":" << iv.end;
        if (i < div.size()) {
            os << ",\"page_div\":{\"n\":" << div[i].count
               << ",\"sum\":" << div[i].sum
               << ",\"max\":" << div[i].max << "}";
        } else {
            os << ",\"page_div\":{\"n\":0,\"sum\":0,\"max\":0}";
        }
        os << ",\"delta\":[";
        for (std::size_t c = 0; c < iv.cum.size(); ++c) {
            os << (c ? "," : "") << (iv.cum[c] - prev[c]);
        }
        os << "],\"cum\":[";
        for (std::size_t c = 0; c < iv.cum.size(); ++c) {
            os << (c ? "," : "") << iv.cum[c];
            prev[c] = iv.cum[c];
        }
        os << "]}";
    }
    os << "],";

    os << "\"stalls\":{";
    first = true;
    for (const auto &[reason, t] : stalls_) {
        os << (first ? "" : ",") << '"' << jsonEscape(reason)
           << "\":{\"warps\":" << t.warps
           << ",\"cycles\":" << t.cycles << "}";
        first = false;
    }
    os << "},";

    os << "\"heat\":{\"total_walks\":" << heat_.totalWalks()
       << ",\"total_refs\":" << heat_.totalRefs()
       << ",\"pages_touched\":" << heat_.pages().size()
       << ",\"lines_touched\":" << heat_.lines().size()
       << ",\"top_pages\":[";
    first = true;
    for (const auto &[vpn, p] : heat_.topPages(cfg_.topK)) {
        // Page keys are ASID-composed; export the halves separately
        // so consumers never have to know the composition shift.
        os << (first ? "" : ",") << "{\"asid\":" << keyAsid(vpn)
           << ",\"vpn\":" << keyLocal(vpn)
           << ",\"walks\":" << p.walks
           << ",\"walk_cycles\":" << p.walkCycles
           << ",\"max_latency\":" << p.maxLatency
           << ",\"sharers\":" << p.sharers() << "}";
        first = false;
    }
    os << "],\"top_lines\":[";
    first = true;
    for (const auto &[line, l] : heat_.topLines(cfg_.topK)) {
        os << (first ? "" : ",") << "{\"line\":" << line
           << ",\"level\":" << l.level << ",\"refs\":" << l.refs
           << ",\"pwc_hits\":" << l.pwcHits
           << ",\"l2_refs\":" << l.l2Refs
           << ",\"dram_refs\":" << l.dramRefs
           << ",\"sharers\":" << l.sharers() << "}";
        first = false;
    }
    os << "]}}";
}

bool
Telemetry::writeJsonFile(const std::string &path) const
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return false;
    writeJson(f);
    return f.good();
}

} // namespace gpummu
