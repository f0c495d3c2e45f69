/**
 * @file
 * Abstract shader core, implemented by SimtCore (per-warp stacks) and
 * TbcCore (thread block compaction). GpuTop drives cores through
 * this interface only.
 */

#ifndef GPU_SHADER_CORE_HH
#define GPU_SHADER_CORE_HH

#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/stall_accounting.hh"

namespace gpummu {

class HeatProfiler;
class MemTraceWriter;
class Mmu;
class L1Cache;
class MemoryStage;
class SpanTracker;
class TraceSink;

class ShaderCore
{
  public:
    virtual ~ShaderCore() = default;

    virtual void tick(Cycle now) = 0;

    /**
     * Sleep support. A tick is *quiescent* when every following
     * cycle would be an idle tick charging the same cells until
     * wakeHint() arrives or a block is launched here: it issued
     * nothing, retired nothing and only charged stall attribution, or
     * it issued but left nothing to issue before the hint. The latter
     * records the charges the idle tick would make. These may read
     * state that only this core's own tick or an event that posts its
     * id changes. runCycleLoop() stops ticking such a core until the
     * hint or a launch arrives.
     */
    virtual bool lastTickQuiescent() const = 0;

    /**
     * The next cycle this core must be ticked while it sleeps. Only
     * an event callback that changes this core's state, or
     * launchBlock(), may lower it; neither its own skipped cycles nor
     * another core's tick may. A callback that lowers it posts the
     * core's id (EventQueue::postWake). runCycleLoop() caches it when
     * the core falls asleep and reads it again only once the id is
     * posted, so an event touching only shared structures or another
     * core costs this core nothing.
     */
    virtual Cycle wakeHint() const = 0;

    /** Apply the charges of the @p n cycles a sleeping core skipped
     *  after @p now, the last cycle already ticked or charged; one
     *  sleep may be settled in several calls. */
    virtual void chargeSkipped(Cycle now, Cycle n) = 0;

    /**
     * Cores may charge a stalled warp's cycles as one interval when
     * its wait ends. Settle every open interval through the current
     * cycle. The top level calls this, after chargeSkipped(), before
     * anything samples live counters mid-run (a telemetry interval
     * boundary) and once after the cycle loop.
     */
    virtual void flushDeferredCharges() = 0;

    /** Whether a block fits now. Only this core's own tick may turn
     *  a refusal into room: runCycleLoop() does not poll a core that
     *  refused again until it has ticked. */
    virtual bool canAcceptBlock() const = 0;
    virtual void launchBlock(unsigned global_block_id) = 0;
    /** No resident work left. */
    virtual bool idle() const = 0;

    virtual Mmu &mmu() = 0;
    virtual L1Cache &l1() = 0;
    virtual MemoryStage &memStage() = 0;

    /** Attach an event trace sink to this core's components. */
    virtual void setTraceSink(TraceSink *sink) { (void)sink; }

    /** Attach a translation heat profiler to this core's walker pool
     *  and memory stage (observation-only, may be null). */
    virtual void setHeatProfiler(HeatProfiler *heat) { (void)heat; }

    /** Attach a translation-lifecycle span tracker to this core's
     *  MMU stack and memory stage (observation-only, may be null). */
    virtual void setSpanTracker(SpanTracker *spans) { (void)spans; }

    /**
     * Attach a memory-trace capture writer (observation-only, may be
     * null to detach). Returns false when this core type cannot
     * capture (TBC compacts warps, so recorded warp ids would not
     * replay); detaching always succeeds.
     */
    virtual bool
    setMemTraceWriter(MemTraceWriter *writer)
    {
        return writer == nullptr;
    }

    /** End-of-run bookkeeping before stats are dumped (folds the
     *  per-warp stall ledger into its histograms). */
    virtual void finalizeRun() { stallAccounting().finalize(); }

    /** Per-warp attributed stall-cycle ledger. */
    virtual WarpStallAccounting &stallAccounting() = 0;
    const WarpStallAccounting &
    stallAccounting() const
    {
        return const_cast<ShaderCore *>(this)->stallAccounting();
    }

    virtual std::uint64_t instructionsIssued() const = 0;
    virtual std::uint64_t idleCycles() const = 0;

    virtual void regStats(StatRegistry &reg,
                          const std::string &prefix) = 0;
};

} // namespace gpummu

#endif // GPU_SHADER_CORE_HH
