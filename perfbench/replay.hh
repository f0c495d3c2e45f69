/**
 * @file
 * Layer replay: drive single simulator layers, through their public
 * functions, with the memory stream one simulation recorded, and time
 * each layer in isolation.
 *
 * The stream comes from a memtrace captured by MemTraceWriter during
 * the traced run and loaded back with loadMemTraceFile(). Every
 * replay rebuilds the workload's address space, so page-table walks
 * and translations see the same mappings the simulation saw.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "rig.hh"
#include "trace/memtrace.hh"

namespace perfbench {

/** Host time of one layer over the whole recorded stream. */
struct LayerTiming
{
    std::string name; ///< metric stem, e.g. "mmu.tlb_lookup"
    double seconds = 0.0;
    std::uint64_t ops = 0;

    double
    nsPerOp() const
    {
        return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
    }
};

struct ReplayResult
{
    std::vector<LayerTiming> layers;
    /** Coalescer totals over the stream, for the cross-check against
     *  the simulation's page_divergence / lines_per_instr sums. */
    std::uint64_t coalescedPages = 0;
    std::uint64_t coalescedLines = 0;
    /** Empty when every replay check passed. */
    std::string error;
};

/** Replay @p trace through each layer of @p spec's design. */
ReplayResult replayLayers(const WorkloadSpec &spec,
                          const gpummu::WorkloadParams &params,
                          const gpummu::MemTraceData &trace);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
