/**
 * @file
 * Low-overhead cycle-level event tracing.
 *
 * A TraceSink is a per-run ring buffer of typed trace events recorded
 * by the components a run is built from: TLB lookups/fills/evictions,
 * the full page-walk lifecycle (enqueue, walker grant, per-level
 * reference, retire, walker occupancy), coalescer splits, L1/L2
 * hits/misses and DRAM channel busy spans. The buffer exports Chrome
 * trace-event JSON (load the file in chrome://tracing or Perfetto).
 *
 * Tracing is strictly observation-only. Components hold a
 * `TraceSink *` that defaults to nullptr; every hook is guarded by
 * that one pointer test, so a disabled run costs a predictable
 * never-taken branch and armed/unarmed runs are bit-identical (the
 * determinism and golden tests enforce this).
 *
 * The sink is single-threaded by design, like the simulator itself:
 * one TraceSink belongs to exactly one run. Parallel sweeps that want
 * traces run one traced point after the sweep.
 */

#ifndef TRACE_TRACE_HH
#define TRACE_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

class EventQueue;

/** Component category of a trace event; also the filter unit. */
enum class TraceCat : std::uint8_t
{
    Tlb,       ///< per-core TLB lookups, fills, evictions
    Ptw,       ///< page-walk lifecycle and walker occupancy
    Coalescer, ///< per-instruction line/page split counts
    L1,        ///< per-core L1 hits and misses
    L2,        ///< shared L2 slice hits and misses
    Dram,      ///< DRAM channel busy spans
    Core,      ///< shader-core level events
    L2Tlb,     ///< shared L2 TLB lookups, fills, MSHR lifecycle
};
inline constexpr std::size_t kNumTraceCats = 8;

/** Stable lower-case name of a category ("tlb", "ptw", ...). */
const char *traceCatName(TraceCat cat);

/** True when @p prefix selects at least one category (the same
 *  prefix matching setFilter uses). Empty matches everything. */
bool traceFilterMatchesAny(const std::string &prefix);

/** Comma-separated list of every category name, for CLI errors. */
std::string traceCatNames();

/**
 * Ring-buffered event sink. Fixed capacity; once full, the oldest
 * events are overwritten (a drop counter reports how many), so a
 * trace always holds the *last* N events of the run.
 */
class TraceSink
{
  public:
    /** One recorded event. Names must be string literals (the sink
     *  stores the pointers, not copies). */
    struct Event
    {
        Cycle ts = 0;
        Cycle dur = 0; ///< 0 for instants and counters
        std::uint64_t value = 0;
        const char *name = nullptr;
        const char *key0 = nullptr; ///< optional arg name, or null
        const char *key1 = nullptr;
        std::uint64_t arg0 = 0;
        std::uint64_t arg1 = 0;
        std::int32_t tid = 0;
        TraceCat cat = TraceCat::Core;
        /** 'i' instant, 'X' span, 'C' counter; flow arrows use
         *  's' start, 't' step, 'f' end (value carries the flow
         *  id binding the three together). */
        char phase = 'i';
    };

    explicit TraceSink(std::size_t capacity = 1u << 20);

    /**
     * Bind the simulation clock used for instants recorded without an
     * explicit cycle. GpuTop binds its own event queue when a sink is
     * attached to a run.
     */
    void bindClock(const EventQueue *eq) { clock_ = eq; }

    /**
     * Restrict recording to categories whose name starts with
     * @p prefix (e.g. "tlb", "ptw", "l"). Empty keeps everything.
     */
    void setFilter(const std::string &prefix);

    bool wants(TraceCat cat) const
    {
        return catMask_ & (1u << static_cast<unsigned>(cat));
    }

    /** A point event at the bound clock's current cycle. */
    void instant(TraceCat cat, const char *name, int tid,
                 const char *key0 = nullptr, std::uint64_t arg0 = 0,
                 const char *key1 = nullptr, std::uint64_t arg1 = 0);

    /** A point event at an explicit cycle. */
    void instantAt(TraceCat cat, const char *name, int tid, Cycle ts,
                   const char *key0 = nullptr, std::uint64_t arg0 = 0,
                   const char *key1 = nullptr, std::uint64_t arg1 = 0);

    /** A completed span [start, start+dur). */
    void span(TraceCat cat, const char *name, int tid, Cycle start,
              Cycle dur, const char *key0 = nullptr,
              std::uint64_t arg0 = 0, const char *key1 = nullptr,
              std::uint64_t arg1 = 0);

    /** A counter track sample (e.g. walker occupancy). */
    void counter(TraceCat cat, const char *name, int tid,
                 std::uint64_t value);

    /**
     * A flow event: @p phase is 's' (start), 't' (step) or 'f'
     * (end); events sharing (@p cat, @p name, @p id) render as one
     * arrow chain in chrome://tracing. The SpanTracker emits one
     * flow per translation span so its lifecycle draws across the
     * component tracks.
     */
    void flow(char phase, TraceCat cat, const char *name, int tid,
              Cycle ts, std::uint64_t id);

    /** Events currently resident in the ring. */
    std::size_t size() const;
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_.value(); }
    /** Events recorded (post-filter) for one category. */
    std::uint64_t
    recorded(TraceCat cat) const
    {
        return catEvents_[static_cast<std::size_t>(cat)].value();
    }
    std::size_t capacity() const { return capacity_; }

    /**
     * Register the sink's own health stats - "<prefix>.dropped" and
     * "<prefix>.events.<cat>" - so a truncated trace is detectable
     * from the run's stat dump without parsing the exported JSON.
     * Armed runs call this with the run's registry; the counts are
     * observation-layer stats and never feed back into simulation.
     */
    void regStats(StatRegistry &reg, const std::string &prefix);

    /**
     * Export as Chrome trace-event JSON:
     * {"traceEvents":[...],"displayTimeUnit":"ns"}. Timestamps are
     * simulated cycles. Events are grouped per category (pid) and
     * per component instance (tid), with metadata naming both.
     */
    void writeChromeTrace(std::ostream &os) const;

    /** writeChromeTrace to @p path; false on I/O failure. */
    bool writeChromeTraceFile(const std::string &path) const;

  private:
    /**
     * Slab-pooled ring storage: events live in fixed-size slabs that
     * never move once allocated, so growing to a million-event ring
     * costs one slab allocation every 4096 events instead of
     * geometric reallocation + copy of everything recorded so far.
     */
    static constexpr std::size_t kSlabShift = 12;
    static constexpr std::size_t kSlabSize = std::size_t(1)
                                             << kSlabShift;

    void push(const Event &ev);
    Cycle nowFromClock() const;

    Event &
    slot(std::size_t i)
    {
        return slabs_[i >> kSlabShift][i & (kSlabSize - 1)];
    }
    const Event &
    slot(std::size_t i) const
    {
        return slabs_[i >> kSlabShift][i & (kSlabSize - 1)];
    }

    std::size_t capacity_;
    std::vector<std::unique_ptr<Event[]>> slabs_;
    std::size_t size_ = 0; ///< events resident in the ring
    std::size_t next_ = 0; ///< ring write cursor once wrapped
    bool wrapped_ = false;
    Counter dropped_;
    std::array<Counter, kNumTraceCats> catEvents_;
    std::uint32_t catMask_;
    const EventQueue *clock_ = nullptr;
};

} // namespace gpummu

#endif // TRACE_TRACE_HH
