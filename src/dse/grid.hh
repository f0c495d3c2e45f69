/**
 * @file
 * Design-space grid for the Pareto autotuner.
 *
 * A grid is a cross product over the translation knobs the paper (and
 * the heterogeneous-MMU pathfinding studies after it) trades off: L1
 * TLB geometry (entries/ways/ports), the page walk cache, an optional
 * shared L2 TLB, walker count or batch-scheduled walking, and the
 * page size. Each point expands to one SystemConfig with a canonical
 * name, and is keyed by a stable 64-bit FNV-1a hash over
 * (benchmark, seed, scale, cores, knobs) — the identity the resumable
 * result cache uses, so it must never depend on process state,
 * pointer values, or field ordering accidents.
 *
 * Grid specs arrive from the CLI as "knob=v1,v2;knob=v3" strings and
 * from named presets. Parsing is strict (full-token from_chars, range
 * checks, geometry validation) — a misparsed spec must fail loudly,
 * not silently expand into an absurd design space; the CACTI
 * infinite-loop bug this PR fixes was reachable from exactly that.
 */

#ifndef DSE_GRID_HH
#define DSE_GRID_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "workloads/workload.hh"

namespace gpummu {

/** One design point's knob settings. */
struct DseKnobs
{
    std::size_t tlbEntries = 128;
    std::size_t tlbWays = 4;
    unsigned tlbPorts = 4;
    /** Page-walk-cache lines; 0 disables the PWC. */
    std::size_t pwcLines = 16;
    /** Shared L2 TLB entries; 0 means no shared L2 TLB. */
    std::size_t l2tlbEntries = 0;
    unsigned l2tlbPorts = 2;
    /** Independent page walkers (ignored when walkSched). */
    unsigned walkers = 1;
    /** Batch-coalescing walk scheduling (single walker). */
    bool walkSched = false;
    /** Back the address space with 2MB pages. */
    bool largePages = false;
};

/** Axes of the cross product; every vector must be non-empty. */
struct DseGrid
{
    std::vector<std::size_t> tlbEntries{128};
    std::vector<std::size_t> tlbWays{4};
    std::vector<unsigned> tlbPorts{4};
    std::vector<std::size_t> pwcLines{16};
    std::vector<std::size_t> l2tlbEntries{0};
    std::vector<unsigned> l2tlbPorts{2};
    /** (count, scheduled) pairs, spelled "2" / "1s" in specs. */
    std::vector<std::pair<unsigned, bool>> walkers{{1, false}};
    std::vector<bool> largePages{false};

    std::size_t numPoints() const;
};

/**
 * Parse a "tlb_entries=64,128;tlb_ports=2,4;walkers=1,2,1s;page=4k,2m"
 * spec. Recognised keys: tlb_entries, tlb_ways, tlb_ports, pwc_lines,
 * l2tlb_entries, l2tlb_ports, walkers, page. Unknown keys, malformed
 * numbers (trailing garbage, overflow, zero where zero is
 * meaningless) and empty value lists all fail with a message in
 * @p err. Keys not mentioned keep their defaults.
 */
bool parseGridSpec(const std::string &spec, DseGrid &out,
                   std::string *err = nullptr);

/**
 * Named grids for the CLI: "tiny" (8 points, CI smoke), "smoke"
 * (64 points, the EXPERIMENTS.md frontier), "default" (768 points,
 * the full pathfinding sweep). Returns false for unknown names.
 */
bool namedGrid(const std::string &name, DseGrid &out);

/** Canonical spec string for a grid (stable across field order). */
std::string gridSpecString(const DseGrid &grid);

/**
 * Expand the cross product in deterministic axis-major order. Each
 * point's makeDseConfig must pass SystemConfig::validate() and have
 * no more ways than entries in either TLB; otherwise throws
 * std::invalid_argument naming the point and its first violation.
 */
std::vector<DseKnobs> expandGrid(const DseGrid &grid);

/** Canonical human-readable knob string, e.g.
 *  "tlb128e4w4p-pwc16-l2none-w1s-4k". Doubles as the config name
 *  suffix and part of the hash preimage. */
std::string knobSpec(const DseKnobs &k);

/** Build the SystemConfig for one design point. */
SystemConfig makeDseConfig(const DseKnobs &k, unsigned num_cores);

/** 64-bit FNV-1a, the cache's stable hash primitive. */
std::uint64_t fnv1a64(const std::string &s);

/**
 * Stable identity of one (benchmark, workload params, machine size,
 * knobs) simulation, as 16 lowercase hex digits. Two runs with the
 * same key are bit-identical simulations (the determinism contract),
 * which is what makes cached results reusable across processes.
 */
std::string dsePointKey(BenchmarkId bench, const WorkloadParams &params,
                        unsigned num_cores, const DseKnobs &k);

} // namespace gpummu

#endif // DSE_GRID_HH
