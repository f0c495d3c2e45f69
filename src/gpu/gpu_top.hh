/**
 * @file
 * Top-level GPU: address space, shared memory system, shader cores
 * and the cycle loop. Thread blocks are dispatched to cores as slots
 * free up, GPGPU-Sim style.
 */

#ifndef GPU_GPU_TOP_HH
#define GPU_GPU_TOP_HH

#include <functional>
#include <memory>
#include <vector>

#include "gpu/shader_core.hh"
#include "gpu/simt_core.hh"
#include "mem/memory_system.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "vm/address_space.hh"
#include "workloads/workload.hh"

namespace gpummu {

class Telemetry;

/** Aggregate results of one simulation. */
struct RunStats
{
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memInstructions = 0;
    std::uint64_t tlbAccesses = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t walkRefsIssued = 0;
    std::uint64_t walkRefsEliminated = 0;
    std::uint64_t walkL2Accesses = 0;
    std::uint64_t walkL2Hits = 0;
    double avgTlbMissLatency = 0.0;
    double avgL1MissLatency = 0.0;
    double avgPageDivergence = 0.0;
    std::uint64_t maxPageDivergence = 0;
    /** Events the run dispatched through its EventQueue. Part of the
     *  replay determinism contract (operator== compares it), and
     *  what perfbench reports as sim.events. Deliberately
     *  not in dumpRunStatsJson: it is a simulator-internals metric,
     *  not a modelled-machine stat, and goldens predate it. */
    std::uint64_t eventsFired = 0;
    /** Cycles the run loop jumped because every core slept
     *  (charged lazily instead of ticked). Deterministic, simulator-
     *  internals only; not in dumpRunStatsJson for the same reason
     *  as eventsFired. */
    std::uint64_t cyclesFastForwarded = 0;

    double
    tlbMissRate() const
    {
        return tlbAccesses
                   ? 1.0 - static_cast<double>(tlbHits) /
                               static_cast<double>(tlbAccesses)
                   : 0.0;
    }

    double
    l1MissRate() const
    {
        return l1Accesses
                   ? 1.0 - static_cast<double>(l1Hits) /
                               static_cast<double>(l1Accesses)
                   : 0.0;
    }

    double
    memInstrFraction() const
    {
        return instructions ? static_cast<double>(memInstructions) /
                                  static_cast<double>(instructions)
                            : 0.0;
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /**
     * Field-wise equality; the replay tests assert bit-identity.
     * cyclesFastForwarded is deliberately excluded: armed telemetry
     * caps fast-forward windows at its interval boundaries, so the
     * *amount* skipped legitimately differs between otherwise
     * bit-identical plain and armed runs. Every modelled quantity —
     * including eventsFired — must still match exactly.
     */
    bool
    operator==(const RunStats &o) const
    {
        return cycles == o.cycles && instructions == o.instructions &&
               memInstructions == o.memInstructions &&
               tlbAccesses == o.tlbAccesses && tlbHits == o.tlbHits &&
               l1Accesses == o.l1Accesses && l1Hits == o.l1Hits &&
               idleCycles == o.idleCycles &&
               walkRefsIssued == o.walkRefsIssued &&
               walkRefsEliminated == o.walkRefsEliminated &&
               walkL2Accesses == o.walkL2Accesses &&
               walkL2Hits == o.walkL2Hits &&
               avgTlbMissLatency == o.avgTlbMissLatency &&
               avgL1MissLatency == o.avgL1MissLatency &&
               avgPageDivergence == o.avgPageDivergence &&
               maxPageDivergence == o.maxPageDivergence &&
               eventsFired == o.eventsFired;
    }
};

/**
 * Dump a RunStats as one JSON object with a fixed field order;
 * identical stats produce identical bytes.
 */
void dumpRunStatsJson(std::ostream &os, const RunStats &s);

/**
 * The cycle loop of GpuTop::run and every multi-tenant slice. From
 * cycle @p start, dispatches blocks [@p first_block, @p end_block)
 * breadth-first as slots free up, polling only cores that ticked or
 * took a block since they last refused, and, after the events due,
 * ticks the awake cores in id order. A quiescent core sleeps until
 * the cycle its wakeHint() names or a block launch; the hint is
 * cached when it falls asleep and read again only once a callback
 * that lowers it posts the core's id on @p eq's wake board, so a
 * cycle costs time per awake or posted core, not per core. A core's
 * id is its index in @p cores. When every core sleeps the clock
 * jumps to the next event or the earliest hint (adding to
 * @p fast_forwarded). Drives @p telemetry's boundaries. When all is
 * idle, drains the cores (deferred charges, then mmu().endKernel(),
 * then finalizeRun()) and returns the end cycle. Fatal once the
 * clock passes @p max_cycles, or at once when every core sleeps with
 * nothing pending.
 */
Cycle runCycleLoop(const std::vector<std::unique_ptr<ShaderCore>> &cores,
                   EventQueue &eq, Telemetry *telemetry,
                   unsigned first_block, unsigned end_block, Cycle start,
                   Cycle max_cycles, std::uint64_t &fast_forwarded);

class GpuTop
{
  public:
    /** Builds one core; lets presets choose SimtCore vs TbcCore and
     *  install schedulers. */
    using CoreFactory = std::function<std::unique_ptr<ShaderCore>(
        int core_id, const LaunchParams &launch, AddressSpace &as,
        MemorySystem &mem, EventQueue &eq)>;

    /**
     * @param num_cores     shader cores (paper: 30)
     * @param mem_cfg       shared memory system parameters
     * @param workload      workload to run (built during construction)
     * @param factory       per-core construction hook
     * @param large_pages   back the address space with 2MB pages
     * @param phys_frames   simulated physical memory size in frames
     */
    GpuTop(unsigned num_cores, const MemorySystemConfig &mem_cfg,
           Workload &workload, CoreFactory factory,
           bool large_pages = false,
           std::uint64_t phys_frames = 16ULL << 20);

    /**
     * Arm event tracing (observation-only): binds the sink to this
     * run's clock and distributes it to every core's TLB, walkers,
     * L1, memory stage and the shared memory system. Call before
     * run(); pass nullptr to detach.
     */
    void setTraceSink(TraceSink *sink);

    /**
     * Arm run telemetry (observation-only): binds the interval
     * sampler to this run's stat registry, distributes the heat
     * profiler to every core's walker pool and memory stage, and
     * makes the cycle loop drive interval boundaries. Call before
     * run(); pass nullptr to detach. run() finalizes the telemetry
     * (tail interval + stall snapshot) before returning.
     */
    void setTelemetry(Telemetry *telemetry);

    /**
     * Arm translation-lifecycle span tracking (observation-only):
     * binds the tracker to this run's clock and distributes it to
     * every core's MMU stack and memory stage. Shared structures
     * outside the cores (L2 TLB, IOMMU) are armed by
     * SharedTranslation::arm(). Call before run(); pass nullptr to
     * detach.
     */
    void setSpanTracker(SpanTracker *spans);

    /**
     * Arm memory-trace capture (observation-only): distributes the
     * writer to every core and writes the trace prologue (meta,
     * regions, program skeleton). Call before run(); pass nullptr to
     * detach. Returns false — without arming anything — when a core
     * type cannot capture (TBC) or the prologue write failed.
     */
    bool setMemTrace(MemTraceWriter *writer);

    /**
     * Run the kernel grid to completion through runCycleLoop().
     * @param max_cycles deadlock guard; fatal when exceeded.
     */
    RunStats run(Cycle max_cycles = 400'000'000);

    StatRegistry &stats() { return stats_; }
    ShaderCore &core(unsigned i) { return *cores_.at(i); }
    unsigned numCores() const { return static_cast<unsigned>(
        cores_.size()); }
    MemorySystem &memorySystem() { return mem_; }
    EventQueue &eventQueue() { return eq_; }

  private:
    PhysicalMemory phys_;
    AddressSpace as_;
    EventQueue eq_;
    MemorySystem mem_;
    Workload &workload_;
    LaunchParams launch_;
    std::vector<std::unique_ptr<ShaderCore>> cores_;
    StatRegistry stats_;
    Telemetry *telemetry_ = nullptr;
};

} // namespace gpummu

#endif // GPU_GPU_TOP_HH
