/**
 * @file
 * Shared scaffolding for the six benchmark models.
 */

#ifndef WORKLOADS_BENCHMARK_BASE_HH
#define WORKLOADS_BENCHMARK_BASE_HH

#include <cmath>
#include <string>

#include "sim/logging.hh"
#include "workloads/patterns.hh"
#include "workloads/workload.hh"

namespace gpummu {

class BenchmarkBase : public Workload
{
  public:
    std::string name() const override { return name_; }
    const KernelProgram &program() const override { return prog_; }
    unsigned threadsPerBlock() const override
    {
        return threadsPerBlock_;
    }
    unsigned numBlocks() const override { return numBlocks_; }

  protected:
    BenchmarkBase(const WorkloadParams &p, std::string name)
        : Workload(p), name_(name), prog_(std::move(name))
    {
        if (!std::isfinite(p.scale) || p.scale <= 0.0) {
            GPUMMU_FATAL("WorkloadParams.scale (", p.scale,
                         ") must be a finite number above 0");
        }
    }

    /** Scale a nominal count by params().scale, keeping at least 1. */
    std::uint64_t
    scaled(std::uint64_t nominal) const
    {
        const double v =
            std::max(1.0, std::floor(static_cast<double>(nominal) *
                                     params_.scale));
        return static_cast<std::uint64_t>(v);
    }

    std::string name_;
    KernelProgram prog_;
    unsigned threadsPerBlock_ = 256;
    unsigned numBlocks_ = 30;
};

} // namespace gpummu

#endif // WORKLOADS_BENCHMARK_BASE_HH
