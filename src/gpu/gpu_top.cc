#include "gpu/gpu_top.hh"

#include <algorithm>

#include "gpu/memory_stage.hh"
#include "mem/l1_cache.hh"
#include "mmu/mmu.hh"
#include "sim/logging.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"
#include "trace/trace.hh"

namespace gpummu {

void
dumpRunStatsJson(std::ostream &os, const RunStats &s)
{
    os << "{\"cycles\":" << s.cycles
       << ",\"instructions\":" << s.instructions
       << ",\"mem_instructions\":" << s.memInstructions
       << ",\"tlb_accesses\":" << s.tlbAccesses
       << ",\"tlb_hits\":" << s.tlbHits
       << ",\"l1_accesses\":" << s.l1Accesses
       << ",\"l1_hits\":" << s.l1Hits
       << ",\"idle_cycles\":" << s.idleCycles
       << ",\"walk_refs_issued\":" << s.walkRefsIssued
       << ",\"walk_refs_eliminated\":" << s.walkRefsEliminated
       << ",\"walk_l2_accesses\":" << s.walkL2Accesses
       << ",\"walk_l2_hits\":" << s.walkL2Hits
       << ",\"avg_tlb_miss_latency\":" << jsonNum(s.avgTlbMissLatency)
       << ",\"avg_l1_miss_latency\":" << jsonNum(s.avgL1MissLatency)
       << ",\"avg_page_divergence\":" << jsonNum(s.avgPageDivergence)
       << ",\"max_page_divergence\":" << s.maxPageDivergence << "}";
}

GpuTop::GpuTop(unsigned num_cores, const MemorySystemConfig &mem_cfg,
               Workload &workload, CoreFactory factory, bool large_pages,
               std::uint64_t phys_frames)
    : phys_(phys_frames), as_(phys_, large_pages), mem_(mem_cfg),
      workload_(workload)
{
    GPUMMU_ASSERT(num_cores > 0);
    workload_.build(as_);
    workload_.program().validate();

    launch_.program = &workload_.program();
    launch_.threadsPerBlock = workload_.threadsPerBlock();
    launch_.totalBlocks = workload_.numBlocks();
    launch_.seed = workload_.params().seed;
    GPUMMU_ASSERT(launch_.totalBlocks > 0);

    cores_.reserve(num_cores);
    for (unsigned i = 0; i < num_cores; ++i) {
        cores_.push_back(factory(static_cast<int>(i), launch_, as_,
                                 mem_, eq_));
        cores_.back()->regStats(stats_,
                                "core" + std::to_string(i));
    }
    mem_.regStats(stats_, "mem");
}

void
GpuTop::setTraceSink(TraceSink *sink)
{
    if (sink != nullptr)
        sink->bindClock(&eq_);
    mem_.setTraceSink(sink);
    for (auto &core : cores_)
        core->setTraceSink(sink);
}

void
GpuTop::setSpanTracker(SpanTracker *spans)
{
    if (spans != nullptr)
        spans->bindClock(&eq_);
    for (auto &core : cores_)
        core->setSpanTracker(spans);
}

void
GpuTop::setTelemetry(Telemetry *telemetry)
{
    telemetry_ = telemetry;
    if (telemetry_ != nullptr)
        telemetry_->begin(stats_);
    HeatProfiler *heat =
        telemetry_ != nullptr ? &telemetry_->heat() : nullptr;
    for (auto &core : cores_)
        core->setHeatProfiler(heat);
}

bool
GpuTop::setMemTrace(MemTraceWriter *writer)
{
    if (writer == nullptr) {
        for (auto &core : cores_)
            core->setMemTraceWriter(nullptr);
        return true;
    }
    // Arm every core first; if any core type cannot capture (TBC),
    // disarm the rest — a half-armed trace would not replay.
    for (auto &core : cores_) {
        if (!core->setMemTraceWriter(writer)) {
            for (auto &c : cores_)
                c->setMemTraceWriter(nullptr);
            return false;
        }
    }
    MemTraceMeta meta;
    meta.bench = workload_.name();
    meta.numCores = static_cast<unsigned>(cores_.size());
    meta.seed = launch_.seed;
    meta.scale = workload_.params().scale;
    meta.threadsPerBlock = launch_.threadsPerBlock;
    meta.numBlocks = launch_.totalBlocks;
    meta.largePages = as_.usesLargePages();
    std::vector<MemTraceRegion> regions;
    for (const VmRegion &r : as_.regions())
        regions.push_back(MemTraceRegion{r.name, r.bytes});
    if (!writer->beginRun(meta, regions, *launch_.program)) {
        for (auto &core : cores_)
            core->setMemTraceWriter(nullptr);
        return false;
    }
    return true;
}

namespace {

/** Place blocks [next_block, end_block) breadth-first: one block per
 *  core per round, so occupancy spreads across the machine the way
 *  GPGPU-Sim dispatches. True if any core accepted one. */
bool
dispatchBlocks(const std::vector<std::unique_ptr<ShaderCore>> &cores,
               unsigned &next_block, unsigned end_block)
{
    bool placed_any = false;
    bool placed = true;
    while (placed && next_block < end_block) {
        placed = false;
        for (const auto &core : cores) {
            if (next_block >= end_block)
                break;
            if (core->canAcceptBlock()) {
                core->launchBlock(next_block++);
                placed = true;
                placed_any = true;
            }
        }
    }
    return placed_any;
}

} // namespace

Cycle
runCycleLoop(const std::vector<std::unique_ptr<ShaderCore>> &cores,
             EventQueue &eq, Telemetry *telemetry, unsigned first_block,
             unsigned end_block, Cycle start, Cycle max_cycles,
             std::uint64_t &fast_forwarded)
{
    unsigned next_block = first_block;
    dispatchBlocks(cores, next_block, end_block);

    Cycle cycle = start;
    while (true) {
        eq.runUntil(cycle);
        bool all_idle = true;
        bool all_quiescent = true;
        Cycle wake = kCycleNever;
        for (const auto &core : cores) {
            core->tick(cycle);
            all_idle = all_idle && core->idle();
            all_quiescent =
                all_quiescent && core->lastTickQuiescent();
            wake = std::min(wake, core->wakeHint());
        }
        const bool placed = dispatchBlocks(cores, next_block, end_block);
        if (all_idle && next_block >= end_block && eq.empty())
            break;
        if (telemetry != nullptr) {
            // An interval boundary samples live counters: apply any
            // deferred quiescent-streak charges first so the sampled
            // values match the per-cycle loop exactly.
            if (cycle + 1 >= telemetry->nextBoundary()) {
                for (const auto &core : cores)
                    core->flushDeferredCharges();
            }
            telemetry->tick(cycle);
        }

        // Fast-forward through quiescent windows: every core's tick
        // was a pure re-chargeable stall scan, so nothing can happen
        // before the next event fires or the earliest readyAt
        // elapses. Jump there, batch-charging the identical per-cycle
        // attribution for the skipped span. Telemetry caps the jump
        // at its next interval boundary so sampled counters see every
        // charge in order. Bit-exact with the per-cycle loop.
        if (all_quiescent && !placed) {
            Cycle target = std::min(eq.nextEventCycle(), wake);
            if (telemetry != nullptr) {
                const Cycle nb = telemetry->nextBoundary();
                target = nb == 0 ? cycle : std::min(target, nb - 1);
            }
            if (target != kCycleNever && target > cycle + 1) {
                const Cycle n = target - (cycle + 1);
                for (const auto &core : cores)
                    core->chargeSkipped(cycle, n);
                cycle += n;
                fast_forwarded += n;
            }
        }
        ++cycle;
        if (cycle > max_cycles) {
            GPUMMU_FATAL("simulation exceeded ", max_cycles,
                         " cycles; deadlock or undersized budget");
        }
    }

    // Settle any deferred quiescent-streak charges before anything
    // below reads counters or folds ledgers.
    for (const auto &core : cores)
        core->flushDeferredCharges();

    // Armed runs verify the drain invariants here: all blocking MMU
    // state (outstanding walks, drain waiters, queued batches) must
    // be gone once every core is idle, and every surviving TLB entry
    // must still match its reference walk. endKernel() also clears
    // transient walker state (stale port reservations) so a
    // follow-on kernel would start from a clean pipeline.
    for (const auto &core : cores)
        core->mmu().endKernel();

    // Fold the per-warp stall ledgers into their stalls.* histograms
    // before anyone dumps the registry.
    for (const auto &core : cores)
        core->finalizeRun();
    return cycle;
}

RunStats
GpuTop::run(Cycle max_cycles)
{
    std::uint64_t fast_forwarded = 0;
    const Cycle cycle =
        runCycleLoop(cores_, eq_, telemetry_, 0, launch_.totalBlocks, 0,
                     max_cycles, fast_forwarded);

    // Telemetry closes its tail interval and snapshots the stall
    // totals only after the loop's drain folded the ledgers.
    if (telemetry_ != nullptr)
        telemetry_->finish(cycle, stats_);

    RunStats out;
    out.cycles = cycle;
    out.eventsFired = eq_.eventsFired();
    out.cyclesFastForwarded = fast_forwarded;
    double tlb_lat_sum = 0.0;
    std::uint64_t tlb_lat_n = 0;
    double l1_lat_sum = 0.0;
    std::uint64_t l1_lat_n = 0;
    double pdiv_sum = 0.0;
    std::uint64_t pdiv_n = 0;
    for (auto &core : cores_) {
        out.instructions += core->instructionsIssued();
        out.memInstructions += core->memStage().memInstructions();
        out.tlbAccesses += core->mmu().tlb().accesses();
        out.tlbHits += core->mmu().tlb().hits();
        out.l1Accesses += core->l1().accesses();
        out.l1Hits += core->l1().hits();
        out.idleCycles += core->idleCycles();
        out.walkRefsIssued += core->mmu().walkers().refsIssued();
        out.walkRefsEliminated +=
            core->mmu().walkers().refsEliminated();

        const auto &tl = core->mmu().missLatency();
        tlb_lat_sum += static_cast<double>(tl.sum());
        tlb_lat_n += tl.count();
        const auto &cl = core->l1().missLatency();
        l1_lat_sum += static_cast<double>(cl.sum());
        l1_lat_n += cl.count();
        const auto &pd = core->memStage().pageDivergence();
        pdiv_sum += static_cast<double>(pd.sum());
        pdiv_n += pd.count();
        out.maxPageDivergence =
            std::max(out.maxPageDivergence, pd.max());
    }
    out.avgTlbMissLatency =
        tlb_lat_n ? tlb_lat_sum / static_cast<double>(tlb_lat_n) : 0.0;
    out.avgL1MissLatency =
        l1_lat_n ? l1_lat_sum / static_cast<double>(l1_lat_n) : 0.0;
    out.avgPageDivergence =
        pdiv_n ? pdiv_sum / static_cast<double>(pdiv_n) : 0.0;
    out.walkL2Accesses = mem_.walkAccesses();
    out.walkL2Hits = mem_.walkL2Hits();
    return out;
}

} // namespace gpummu
