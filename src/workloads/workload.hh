/**
 * @file
 * Workload interface and factory.
 *
 * Each workload models the memory-access shape of one of the paper's
 * benchmarks (Section 5.1: Rodinia bfs, kmeans, streamcluster,
 * mummergpu, pathfinder, plus memcached over a skewed key trace).
 * A workload maps its data structures into the shared address space
 * and builds a KernelProgram whose address/condition generators
 * reproduce the benchmark's published characterisation: memory
 * instruction fraction, TLB-reach pressure, page divergence, branch
 * divergence and intra-warp locality.
 */

#ifndef WORKLOADS_WORKLOAD_HH
#define WORKLOADS_WORKLOAD_HH

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gpu/kernel.hh"
#include "vm/address_space.hh"

namespace gpummu {

/** Knobs shared by all workload models. */
struct WorkloadParams
{
    std::uint64_t seed = 1;
    /**
     * Linear scale on footprint and grid size; 1.0 is the default
     * evaluation size (sized so 128-entry TLBs see the paper's miss
     * rate bands on a multi-hundred-MB-class footprint analogue).
     * Tests use small scales for speed.
     */
    double scale = 1.0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual std::string name() const = 0;

    /** Map regions into @p as and build the kernel program. */
    virtual void build(AddressSpace &as) = 0;

    virtual const KernelProgram &program() const = 0;
    virtual unsigned threadsPerBlock() const = 0;
    virtual unsigned numBlocks() const = 0;

    const WorkloadParams &params() const { return params_; }

  protected:
    explicit Workload(const WorkloadParams &p) : params_(p) {}

    WorkloadParams params_;
};

/** The six paper benchmarks, plus the translation-stress classes
 *  added beyond the paper (hashprobe, spgrid, service). */
enum class BenchmarkId
{
    Bfs,
    Kmeans,
    Streamcluster,
    Mummergpu,
    Pathfinder,
    Memcached,
    Hashprobe,
    Spgrid,
    Service,
};

/** All benchmarks in the paper's presentation order. */
std::vector<BenchmarkId> allBenchmarks();

/** The default multi-tenant pairing: one irregular benchmark (bfs)
 *  co-scheduled with one regular one (pathfinder). */
std::vector<BenchmarkId> defaultTenantPair();

std::string benchmarkName(BenchmarkId id);

/** The benchmark benchmarkName() spells @p name, or nullopt. */
std::optional<BenchmarkId> benchmarkByName(std::string_view name);

/** Every benchmark name in allBenchmarks() order, space-separated,
 *  for the error that rejects an unknown one. */
std::string benchmarkNames();

/** Instantiate one benchmark model. */
std::unique_ptr<Workload> makeWorkload(BenchmarkId id,
                                       const WorkloadParams &params);

} // namespace gpummu

#endif // WORKLOADS_WORKLOAD_HH
