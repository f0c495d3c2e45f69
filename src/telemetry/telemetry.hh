/**
 * @file
 * Interval telemetry and translation heat profiling.
 *
 * The paper's interesting results are *phase* phenomena - TLB miss
 * bursts at kernel start, page-divergence spikes, walker saturation
 * (Figs. 3-7) - which whole-run aggregates cannot show. This layer
 * makes them first-class:
 *
 *  - StatSampler snapshots every registered counter each N cycles,
 *    producing a per-interval time series (delta + cumulative) of the
 *    whole StatRegistry;
 *  - HeatProfiler attributes page-walk work to virtual pages and
 *    paging-structure cache lines: walks, walk cycles and sharer
 *    cores per VPN, references per line split by radix level and by
 *    where they hit (walk cache / shared L2 / DRAM), plus a
 *    per-interval page-divergence series (the Fig. 3 shape);
 *  - Telemetry bundles both for one run, drives interval boundaries
 *    off the cycle loop, and exports byte-stable CSV / JSON (and,
 *    via telemetry/report.hh, a self-contained HTML report).
 *
 * Telemetry is strictly observation-only, exactly like TraceSink:
 * components hold a nullptr-guarded HeatProfiler pointer, GpuTop
 * holds a nullptr-guarded Telemetry pointer, nothing is registered in
 * the StatRegistry, and armed vs unarmed runs are bit-identical (the
 * telemetry determinism tests enforce this). A Telemetry belongs to
 * exactly one run.
 */

#ifndef TELEMETRY_TELEMETRY_HH
#define TELEMETRY_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "telemetry/span.hh"

namespace gpummu {

struct TelemetryConfig
{
    /** Cycles per sampling interval. */
    Cycle sampleInterval = 10'000;
    /** Rows in the exported hot-page / hot-line tables. */
    std::size_t topK = 32;
};

/**
 * Per-VPN and per-paging-structure-line walk attribution, hooked off
 * the page walker pools and the memory stage. All hooks are O(log n)
 * map updates on paths that already do comparable work per event.
 */
class HeatProfiler
{
  public:
    /** Walk attribution for one 4KB-granularity VPN. */
    struct PageStat
    {
        std::uint64_t walks = 0;
        std::uint64_t walkCycles = 0; ///< sum of enqueue->done times
        std::uint64_t maxLatency = 0;
        std::uint64_t sharerMask = 0; ///< bit per walker tid (63 = other)
        unsigned sharers() const;
    };

    /** Reference attribution for one page-table line address. */
    struct LineStat
    {
        std::uint64_t refs = 0;
        std::uint64_t pwcHits = 0;
        std::uint64_t l2Refs = 0;
        std::uint64_t dramRefs = 0;
        std::uint64_t sharerMask = 0;
        unsigned level = 0; ///< deepest radix level observed (0 = root)
        unsigned sharers() const;
    };

    /** One closed interval of the page-divergence series. */
    struct DivergenceInterval
    {
        std::uint64_t count = 0; ///< warp memory instructions
        std::uint64_t sum = 0;   ///< summed distinct-page counts
        std::uint64_t max = 0;
    };

    /** Walk completed: @p vpn at 4KB granularity, from walker pool
     *  @p tid, enqueued at @p enq, done at @p done. */
    void onWalkComplete(Vpn vpn, int tid, Cycle enq, Cycle done);

    /** One page-table reference to @p line at radix @p level. */
    void onWalkRef(PhysAddr line, unsigned level, int tid,
                   SpanWalkRef where);

    /** One warp memory instruction touched @p pages distinct pages. */
    void onPageDivergence(std::uint64_t pages);

    /** Close the current page-divergence interval (Telemetry calls
     *  this at every sample boundary). */
    void rollInterval();

    const std::map<Vpn, PageStat> &pages() const { return pages_; }
    const std::map<PhysAddr, LineStat> &lines() const
    {
        return lines_;
    }
    const std::vector<DivergenceInterval> &divergenceSeries() const
    {
        return divSeries_;
    }

    /** Conservation handles: sums over the attribution tables. */
    std::uint64_t totalWalks() const { return totalWalks_; }
    std::uint64_t totalRefs() const { return totalRefs_; }
    std::uint64_t totalDivergenceSamples() const { return totalDivN_; }

    /** Top @p k pages by walk count (ties broken by VPN, so the
     *  ordering - and every export - is deterministic). */
    std::vector<std::pair<Vpn, PageStat>> topPages(std::size_t k) const;
    std::vector<std::pair<PhysAddr, LineStat>>
    topLines(std::size_t k) const;

  private:
    static std::uint64_t sharerBit(int tid);

    std::map<Vpn, PageStat> pages_;
    std::map<PhysAddr, LineStat> lines_;
    std::vector<DivergenceInterval> divSeries_;
    DivergenceInterval cur_;
    std::uint64_t totalWalks_ = 0;
    std::uint64_t totalRefs_ = 0;
    std::uint64_t totalDivN_ = 0;
};

/**
 * Cycle-driven snapshotter of every counter in a StatRegistry.
 * bind() captures the (sorted) name/pointer table once; sample()
 * records one cumulative row per interval. Deltas are derived at
 * export time from consecutive rows.
 */
class StatSampler
{
  public:
    struct Interval
    {
        Cycle start = 0;
        Cycle end = 0; ///< exclusive
        std::vector<std::uint64_t> cum;
    };

    /** Capture the registry's counters; call once, after every
     *  component has registered (registration is construction-time,
     *  so any point before the cycle loop works). */
    void bind(const StatRegistry &reg);

    bool bound() const { return !counters_.empty(); }

    /** Record the row for interval [start, end). */
    void sample(Cycle start, Cycle end);

    const std::vector<std::string> &names() const { return names_; }
    const std::vector<Interval> &intervals() const
    {
        return intervals_;
    }

  private:
    std::vector<std::string> names_;
    std::vector<const Counter *> counters_;
    std::vector<Interval> intervals_;
};

/**
 * Everything one run's telemetry produces. Arm with
 * GpuTop::setTelemetry() (or RunObservers::telemetry of a run entry
 * point) before the cycle loop.
 */
class Telemetry
{
  public:
    explicit Telemetry(const TelemetryConfig &cfg = {});

    const TelemetryConfig &config() const { return cfg_; }

    /** Bind the sampler to the run's registry (GpuTop calls this). */
    void begin(const StatRegistry &reg);

    /** Per-cycle hook from the cycle loop; closes an interval every
     *  sampleInterval cycles. */
    void
    tick(Cycle now)
    {
        if (now + 1 >= nextBoundary_)
            boundary(now + 1);
    }

    /** Cycle boundary the next interval closes at. The cycle loop
     *  must not fast-forward past nextBoundary() - 1: the counters an
     *  interval samples have to be fully charged before it closes. */
    Cycle nextBoundary() const { return nextBoundary_; }

    /** End of run at @p cycles: close the partial tail interval and
     *  snapshot the per-reason stall-attribution totals. */
    void finish(Cycle cycles, const StatRegistry &reg);

    bool finished() const { return finished_; }
    Cycle runCycles() const { return runCycles_; }

    HeatProfiler &heat() { return heat_; }
    const HeatProfiler &heat() const { return heat_; }
    const StatSampler &sampler() const { return sampler_; }

    /** Label the exports; runConfigFull sets these. */
    void setMeta(const std::string &bench, const std::string &config);

    /** Summed "<core>.stalls.<reason>" histograms, keyed by reason. */
    struct StallTotal
    {
        std::uint64_t warps = 0;  ///< warp slots that stalled
        std::uint64_t cycles = 0; ///< total attributed warp-cycles
    };
    const std::map<std::string, StallTotal> &stalls() const
    {
        return stalls_;
    }

    /**
     * Interval time series as CSV: one row per interval, one column
     * per counter holding the interval's *delta*, plus the
     * page-divergence columns. Byte-stable for identical runs.
     */
    void writeCsv(std::ostream &os) const;
    bool writeCsvFile(const std::string &path) const;

    /**
     * Full telemetry as one JSON object: meta, interval series
     * (delta + cumulative), stall totals and the top-K heat tables.
     * Byte-stable for identical runs; also the payload the HTML
     * report embeds.
     */
    void writeJson(std::ostream &os) const;
    bool writeJsonFile(const std::string &path) const;

  private:
    void boundary(Cycle at);

    TelemetryConfig cfg_;
    StatSampler sampler_;
    HeatProfiler heat_;
    Cycle nextBoundary_;
    Cycle lastBoundary_ = 0;
    bool finished_ = false;
    Cycle runCycles_ = 0;
    std::string bench_;
    std::string config_;
    std::map<std::string, StallTotal> stalls_;
};

} // namespace gpummu

#endif // TELEMETRY_TELEMETRY_HH
