#include "workloads/workload.hh"

#include "sim/logging.hh"
#include "workloads/benchmarks.hh"

namespace gpummu {

std::vector<BenchmarkId>
allBenchmarks()
{
    return {BenchmarkId::Bfs,           BenchmarkId::Kmeans,
            BenchmarkId::Streamcluster, BenchmarkId::Mummergpu,
            BenchmarkId::Pathfinder,    BenchmarkId::Memcached,
            BenchmarkId::Hashprobe,     BenchmarkId::Spgrid,
            BenchmarkId::Service};
}

std::string
benchmarkName(BenchmarkId id)
{
    switch (id) {
      case BenchmarkId::Bfs:
        return "bfs";
      case BenchmarkId::Kmeans:
        return "kmeans";
      case BenchmarkId::Streamcluster:
        return "streamcluster";
      case BenchmarkId::Mummergpu:
        return "mummergpu";
      case BenchmarkId::Pathfinder:
        return "pathfinder";
      case BenchmarkId::Memcached:
        return "memcached";
      case BenchmarkId::Hashprobe:
        return "hashprobe";
      case BenchmarkId::Spgrid:
        return "spgrid";
      case BenchmarkId::Service:
        return "service";
    }
    GPUMMU_PANIC("unknown benchmark id");
}

std::optional<BenchmarkId>
benchmarkByName(std::string_view name)
{
    for (BenchmarkId id : allBenchmarks()) {
        if (benchmarkName(id) == name)
            return id;
    }
    return std::nullopt;
}

std::string
benchmarkNames()
{
    std::string names;
    for (BenchmarkId id : allBenchmarks())
        names.append(names.empty() ? "" : " ").append(benchmarkName(id));
    return names;
}

std::vector<BenchmarkId>
defaultTenantPair()
{
    // The canonical co-schedule for multi-tenant runs: bfs (irregular,
    // TLB-hostile pointer chasing) beside pathfinder (regular grid
    // sweeps). The contrast makes cross-tenant interference on the
    // shared IOMMU TLB visible: the regular tenant suffers the
    // irregular one's evictions without the pair saturating the
    // walkers outright.
    return {BenchmarkId::Bfs, BenchmarkId::Pathfinder};
}

std::unique_ptr<Workload>
makeWorkload(BenchmarkId id, const WorkloadParams &params)
{
    switch (id) {
      case BenchmarkId::Bfs:
        return makeBfs(params);
      case BenchmarkId::Kmeans:
        return makeKmeans(params);
      case BenchmarkId::Streamcluster:
        return makeStreamcluster(params);
      case BenchmarkId::Mummergpu:
        return makeMummergpu(params);
      case BenchmarkId::Pathfinder:
        return makePathfinder(params);
      case BenchmarkId::Memcached:
        return makeMemcached(params);
      case BenchmarkId::Hashprobe:
        return makeHashprobe(params);
      case BenchmarkId::Spgrid:
        return makeSpgrid(params);
      case BenchmarkId::Service:
        return makeService(params);
    }
    GPUMMU_PANIC("unknown benchmark id");
}

} // namespace gpummu
