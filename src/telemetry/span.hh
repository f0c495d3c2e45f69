/**
 * @file
 * Translation-lifecycle span tracing.
 *
 * A SpanTracker follows one translation request end to end: a span
 * opens at the L1-TLB lookup (or at the memory stage's IOMMU
 * departure) and records cycle-stamped stage transitions through L1
 * hit/miss, the shared L2 TLB (lookup, MSHR merge, bypass), the page
 * walkers (enqueue vs grant — the queueing/service split), the IOMMU
 * path, and the final fill/wakeup. Spans are keyed by the same
 * ASID-composed `(asid<<44)|vpn` keys the TLBs index by, so
 * per-tenant breakdowns fall out of the key algebra for free.
 *
 * Like TraceSink and Telemetry, span tracking is strictly
 * observation-only: components hold a `SpanTracker *` that defaults
 * to nullptr, every hook is one pointer test, the tracker registers
 * no stats and feeds nothing back, so armed and unarmed runs are
 * bit-identical (test_spans enforces this on every registry
 * workload).
 *
 * Accounting model: each recorded transition is attributed the
 * "arrival interval" since the span's previous transition, labeled
 * with the stage just reached. Intervals telescope, so the per-stage
 * sums of one span add up to its end-to-end latency exactly — no
 * double-counted or lost cycles — and every stage is classified as
 * queueing (waiting for a resource: walker grant, L2 port, IOMMU
 * port/interconnect) or service, giving an exact queueing-vs-service
 * decomposition per span.
 *
 * Memory stays bounded on arbitrarily long runs: closed spans fold
 * into per-stage histograms (sim/stats.hh, with p50/p95/p99) and a
 * per-ASID end-to-end table; only the top-K slowest spans keep their
 * full timelines.
 */

#ifndef TELEMETRY_SPAN_HH
#define TELEMETRY_SPAN_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

class EventQueue;
class TraceSink;

/** Lifecycle stage a translation span transitions through. */
enum class SpanStage : std::uint8_t
{
    L1Lookup,    ///< span opens: per-core L1 TLB probe
    L1Hit,       ///< L1 hit; the span closes immediately
    L1Miss,      ///< L1 miss; the walk machinery takes over
    L2Lookup,    ///< shared L2 TLB probe issued (after port wait)
    L2Hit,       ///< L2 hit; wake at its hit latency
    L2Merge,     ///< merged into an L2 translation MSHR
    L2Bypass,    ///< L2 MSHRs exhausted; walk bypasses the L2
    L2NeedWalk,  ///< L2 miss; an L2-owned walk starts
    WalkEnqueue, ///< queued at the page walkers
    WalkGrant,   ///< a walker picked it up (queueing ends)
    WalkDone,    ///< the walk retired (service ends)
    IommuDepart, ///< span opens: request leaves for the IOMMU
    IommuLookup, ///< IOMMU TLB probe issued (after icnt + port)
    IommuHit,    ///< IOMMU TLB hit; the span closes
    IommuMerge,  ///< merged into an outstanding IOMMU walk
    IommuFault,  ///< page fault raised before the IOMMU walk
    Fill,        ///< translation filled; waiters wake; span closes
};
inline constexpr std::size_t kNumSpanStages = 17;

/** Stable lower-case stage name ("l1_lookup", "walk_grant", ...). */
const char *spanStageName(SpanStage stage);

/** True for stages whose arrival interval is time spent *waiting*
 *  for a resource rather than being serviced by one. */
bool spanStageQueueing(SpanStage stage);

/** Where a page-walk memory reference was satisfied. */
enum class SpanWalkRef : std::uint8_t
{
    Pwc,  ///< page walk cache hit
    L2,   ///< shared L2 slice (hit or merged fill)
    Dram, ///< missed every cache; a DRAM channel serviced it
};
inline constexpr std::size_t kNumSpanWalkRefs = 3;

class SpanTracker
{
  public:
    struct StageEvent
    {
        SpanStage stage;
        Cycle cycle;
    };

    /** A retired span; only the top-K slowest keep this form. */
    struct ClosedSpan
    {
        std::uint64_t id = 0;
        std::uint64_t key = 0; ///< (asid<<44)|vpn
        std::int32_t tid = 0;  ///< opening core id; -1 shared
        Cycle open = 0;
        Cycle close = 0;
        Cycle queueing = 0;
        Cycle service = 0;
        std::vector<StageEvent> timeline;

        Cycle latency() const { return close - open; }
    };

    explicit SpanTracker(std::size_t top_k = 32);

    /** Bind the clock used by the *Now hook variants. GpuTop binds
     *  its event queue when a tracker is attached to a run. */
    void bindClock(const EventQueue *eq) { clock_ = eq; }

    /**
     * Also emit Chrome-trace flow events ('s'/'t'/'f' under the core
     * category, one flow id per span) into @p sink, so spans render
     * as arrows across the component tracks in chrome://tracing.
     */
    void setTraceSink(TraceSink *sink) { sink_ = sink; }

    /** Open a new span for @p key at the bound clock's cycle. */
    void openNow(std::uint64_t key, SpanStage stage, int tid);
    /** Open a new span for @p key at an explicit cycle. */
    void openAt(std::uint64_t key, SpanStage stage, Cycle at, int tid);
    /** Record a stage on the newest open span for @p key, or open
     *  one when none is outstanding (the IOMMU's shared entry). */
    void openOrStageAt(std::uint64_t key, SpanStage stage, Cycle at,
                       int tid);

    /** Record a transition on the newest open span for @p key at the
     *  bound clock's cycle; no-op when no span is open. */
    void stageNow(std::uint64_t key, SpanStage stage);
    /** Record a transition at an explicit cycle. */
    void stageAt(std::uint64_t key, SpanStage stage, Cycle at);

    /** Close the newest open span for @p key (the L1-hit path). */
    void closeNewestNow(std::uint64_t key, SpanStage stage);
    void closeNewestAt(std::uint64_t key, SpanStage stage, Cycle at);

    /**
     * Close every open span for @p key: a fill wakes the walk owner
     * and all merged waiters at the same ready cycle, so they retire
     * together. No-op when none are open (late duplicate fills).
     */
    void closeAllAt(std::uint64_t key, SpanStage stage, Cycle at);

    /** Count one page-walk memory reference for walk level
     *  @p level, satisfied at @p where. Kept globally (scheduled
     *  walk batches share references across walks), reconciling
     *  exactly with the walkers' refs_issued counter. */
    void walkRef(unsigned level, SpanWalkRef where);

    // --- Conservation queries (test_spans reconciles these against
    // --- the simulation's own counters). ---
    std::uint64_t spansOpened() const { return opened_; }
    std::uint64_t spansClosed() const { return closed_; }
    /** Spans still open (opened - closed). */
    std::uint64_t spansOpen() const { return opened_ - closed_; }
    std::uint64_t stageCount(SpanStage stage) const
    {
        return stageCounts_[static_cast<std::size_t>(stage)];
    }
    std::uint64_t walkRefs(SpanWalkRef where) const;
    std::uint64_t walkRefsTotal() const;
    bool empty() const { return closed_ == 0; }

    // --- Aggregates. ---
    const Histogram &stageHist(SpanStage stage) const
    {
        return stageHists_[static_cast<std::size_t>(stage)];
    }
    const Histogram &endToEnd() const { return endToEnd_; }
    const Histogram &queueing() const { return queueing_; }
    const Histogram &service() const { return service_; }
    /** Per-ASID end-to-end latency, ASID-ascending. */
    const std::map<Asid, Histogram> &perAsid() const
    {
        return perAsid_;
    }
    /** The K slowest spans: latency desc, then open asc, then id. */
    const std::vector<ClosedSpan> &topSpans() const { return topK_; }

    // --- Exports (byte-stable for identical runs). ---
    /** Human-readable stage table + queueing-vs-service split +
     *  slowest spans; for CLIs and EXPERIMENTS walkthroughs. */
    void writeSummary(std::ostream &os) const;
    /** CSV: stage table, per-ASID table and top-K span timelines as
     *  `#`-headed sections. */
    void writeCsv(std::ostream &os) const;
    bool writeCsvFile(const std::string &path) const;
    /** One JSON object: meta, stages, totals, per_asid, top_spans. */
    void writeJson(std::ostream &os) const;
    bool writeJsonFile(const std::string &path) const;

  private:
    struct OpenSpan
    {
        std::uint64_t key = 0;
        std::int32_t tid = 0;
        Cycle open = 0;
        std::vector<StageEvent> timeline;
    };

    Cycle nowFromClock() const;
    OpenSpan *newest(std::uint64_t key);
    void record(OpenSpan &sp, SpanStage stage, Cycle at);
    void closeSpan(std::uint64_t id, SpanStage stage, Cycle at);
    void considerTopK(ClosedSpan &&done);

    const EventQueue *clock_ = nullptr;
    TraceSink *sink_ = nullptr;
    std::size_t topKLimit_;

    std::uint64_t nextId_ = 1;
    std::uint64_t opened_ = 0;
    std::uint64_t closed_ = 0;

    /** Open spans by id, and per-key LIFO stacks of open ids (stage
     *  events attach to the newest; fills close the whole stack). */
    std::unordered_map<std::uint64_t, OpenSpan> spans_;
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        open_;

    std::array<Histogram, kNumSpanStages> stageHists_;
    std::array<std::uint64_t, kNumSpanStages> stageCounts_{};
    Histogram endToEnd_;
    Histogram queueing_;
    Histogram service_;
    std::map<Asid, Histogram> perAsid_;
    std::array<std::array<std::uint64_t, kNumSpanWalkRefs>, 4>
        walkRefs_{};
    std::vector<ClosedSpan> topK_;
};

} // namespace gpummu

#endif // TELEMETRY_SPAN_HH
