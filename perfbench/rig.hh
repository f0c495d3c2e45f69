/**
 * @file
 * Simulation rig of the host-performance benchmark.
 *
 * The benchmark drives the simulator only through its public entry
 * points, so it builds each simulation itself — workload, address
 * space, GPU and, for designs that need them, the GPU-wide shared L2
 * TLB or IOMMU — with the same wiring the library's runWorkloadFull()
 * uses. Building it here, rather than calling runConfigFull(), splits
 * set-up (everything before cycle 0) from the cycle loop, and lets a
 * run swap in TimedCore, a ShaderCore decorator that measures the
 * host time of the per-core tick from outside the core.
 */

#ifndef PERFBENCH_RIG_HH
#define PERFBENCH_RIG_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system_config.hh"
#include "gpu/gpu_top.hh"
#include "mmu/iommu.hh"
#include "mmu/l2_tlb.hh"
#include "workloads/workload.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * A cheap monotonic host tick count for timing calls of a few tens of
 * nanoseconds: the TSC on x86 (a fraction of a clock_gettime), the
 * steady clock elsewhere. Convert a tick delta to seconds by scaling
 * against a steady-clock interval measured over the same span.
 */
inline std::uint64_t
hostTicks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
}

/** One benchmark workload: a registry benchmark under a preset. */
struct WorkloadSpec
{
    std::string name;
    gpummu::BenchmarkId bench;
    std::string preset; ///< the presets:: expression, for the stamp
    gpummu::SystemConfig cfg;
    double scale;
};

/** The benchmark's workloads, in BENCHMARK.json order. */
const std::vector<WorkloadSpec> &workloadSpecs();

/** The spec named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Host ticks (hostTicks()) and calls of the ShaderCore entry
 *  points the cycle loop drives, summed over all cores. */
struct TickLedger
{
    std::uint64_t tickTicks = 0;
    std::uint64_t tickCalls = 0;
    std::uint64_t chargeTicks = 0;
};

/** Observers armed on one simulation (all observation-only). */
struct Observers
{
    /** Non-null: wrap every core in TimedCore, accumulating here. */
    TickLedger *ticks = nullptr;
    gpummu::SpanTracker *spans = nullptr;
    gpummu::MemTraceWriter *memtrace = nullptr;
};

/**
 * One built simulation. Member order is destruction order in
 * reverse: the GPU (whose cores point at the shared L2 TLB / IOMMU)
 * goes first, the workload it references last.
 */
struct Rig
{
    std::unique_ptr<gpummu::Workload> workload;
    std::shared_ptr<std::unique_ptr<gpummu::L2Tlb>> l2tlb;
    std::shared_ptr<std::unique_ptr<gpummu::Iommu>> iommu;
    std::unique_ptr<gpummu::GpuTop> gpu;

    gpummu::L2Tlb *sharedL2Tlb() const
    {
        return l2tlb ? l2tlb->get() : nullptr;
    }
    gpummu::Iommu *sharedIommu() const
    {
        return iommu ? iommu->get() : nullptr;
    }
};

/** Build the workload and the GPU up to cycle 0. */
Rig buildRig(const WorkloadSpec &spec,
             const gpummu::WorkloadParams &params,
             const Observers &obs = {});

/** Run a built rig's kernel to completion and run the shared
 *  structures' end-of-kernel drain checks. */
gpummu::RunStats runRig(Rig &rig, const gpummu::SystemConfig &cfg,
                        const Observers &obs = {});

} // namespace perfbench

#endif // PERFBENCH_RIG_HH
