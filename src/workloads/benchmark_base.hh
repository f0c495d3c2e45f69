/**
 * @file
 * Shared scaffolding for the six benchmark models.
 */

#ifndef WORKLOADS_BENCHMARK_BASE_HH
#define WORKLOADS_BENCHMARK_BASE_HH

#include <cmath>
#include <limits>
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
        if (!std::isfinite(p.scale) || p.scale <= 0.0)
            badScale("must be a finite number above 0");
    }

    /**
     * Scale a nominal count by params().scale, keeping at least 1,
     * and shift it left by @p shift. Fatal, naming the scale, when
     * the result does not fit T.
     */
    template <typename T = std::uint64_t>
    T
    scaled(std::uint64_t nominal, unsigned shift = 0) const
    {
        const double v =
            std::max(1.0, std::floor(static_cast<double>(nominal) *
                                     params_.scale));
        if (v >= std::ldexp(1.0, std::numeric_limits<T>::digits -
                                     static_cast<int>(shift)))
            badScale("is too large: a scaled size overflows");
        return static_cast<T>(static_cast<std::uint64_t>(v) << shift);
    }

    /** A region of @p n MiB, scaled, in bytes. */
    std::uint64_t scaledMiB(std::uint64_t n) const { return scaled(n, 20); }

    [[noreturn]] void
    badScale(const char *rule) const
    {
        GPUMMU_FATAL("WorkloadParams.scale (", params_.scale, ") ", rule);
    }

    std::string name_;
    KernelProgram prog_;
    unsigned threadsPerBlock_ = 256;
    unsigned numBlocks_ = 30;
};

} // namespace gpummu

#endif // WORKLOADS_BENCHMARK_BASE_HH
