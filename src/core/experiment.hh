/**
 * @file
 * Experiment runner: build a GPU from a SystemConfig, run a
 * benchmark, and report speedups against a cached no-TLB baseline -
 * the normalization every figure in the paper uses.
 *
 * Experiment is thread-safe: the memo cache is mutex-guarded and each
 * key carries an in-flight latch (a shared_future), so when several
 * sweep workers ask for the same (benchmark, config) point - most
 * commonly the expensive no-TLB baseline - exactly one thread
 * simulates it and the rest block on the latch instead of duplicating
 * the run.
 */

#ifndef CORE_EXPERIMENT_HH
#define CORE_EXPERIMENT_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "core/run_observers.hh"
#include "core/system_config.hh"
#include "gpu/gpu_top.hh"
#include "workloads/workload.hh"

namespace gpummu {

/**
 * Everything one simulation produces: the aggregate RunStats plus a
 * machine-readable JSON dump of the full StatRegistry. The JSON is
 * byte-stable for identical runs, which the parallel-equivalence and
 * golden-stats tests assert.
 */
struct RunOutput
{
    RunStats stats;
    std::string statsJson;
};

/** Run one (benchmark, config) pair to completion. */
RunStats runConfig(BenchmarkId bench, const SystemConfig &cfg,
                   const WorkloadParams &params);

/** As runConfig, but also capture the JSON stat dump, with @p obs
 *  armed as runWorkloadFull arms them. */
RunOutput runConfigFull(BenchmarkId bench, const SystemConfig &cfg,
                        const WorkloadParams &params,
                        const RunObservers &obs = {});

/**
 * As runConfigFull, over an already-constructed Workload (the entry
 * point for TraceReplayWorkload). Every design takes one path:
 * SharedTranslation builds the cores and the GPU-wide L2 TLB or IOMMU,
 * GpuTop::run drives the cycle loop, then the unit's drain invariants
 * are checked. @p obs is armed on the GPU and the unit before the
 * loop; @c memtrace is finished after it, and capture on a TBC
 * topology or a failing trace write is fatal.
 */
RunOutput runWorkloadFull(Workload &workload, const SystemConfig &cfg,
                          const RunObservers &obs = {});

/**
 * Convenience harness for the benches: caches the no-TLB baseline
 * per benchmark (with the matching core kind and scheduler, as the
 * paper's figures do) and reports speedups against it. Safe to call
 * concurrently from sweep worker threads.
 */
class Experiment
{
  public:
    explicit Experiment(const WorkloadParams &params) : params_(params)
    {
    }

    Experiment(const Experiment &) = delete;
    Experiment &operator=(const Experiment &) = delete;

    /** Simulated cycles for (bench, cfg); memoized. */
    RunStats run(BenchmarkId bench, const SystemConfig &cfg);

    /**
     * Stats plus JSON dump for (bench, cfg); memoized. The reference
     * stays valid for the Experiment's lifetime.
     */
    const RunOutput &runFull(BenchmarkId bench,
                             const SystemConfig &cfg);

    /**
     * Speedup of @p cfg over @p baseline for @p bench (values < 1
     * are slowdowns, exactly as the paper plots them).
     */
    double speedup(BenchmarkId bench, const SystemConfig &cfg,
                   const SystemConfig &baseline);

    /** Simulations actually executed (cache misses), for tests. */
    std::size_t missCount() const;

    const WorkloadParams &params() const { return params_; }

  private:
    WorkloadParams params_;
    mutable std::mutex mu_;
    std::map<std::string, std::shared_future<RunOutput>> cache_;
    std::size_t misses_ = 0;
};

/** Fixed-width table printer used by all bench binaries. */
class ReportTable
{
  public:
    explicit ReportTable(std::vector<std::string> columns);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

    /** Format a double with fixed precision. */
    static std::string num(double v, int precision = 3);
    static std::string pct(double v, int precision = 1);

  private:
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace gpummu

#endif // CORE_EXPERIMENT_HH
