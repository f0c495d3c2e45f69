/**
 * @file
 * Host-performance benchmark of the gpummu simulator.
 *
 *   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
 *             [--work-dir <dir>]
 *
 * --trace 0 measures end to end: it repeats one simulation of the
 * workload, one at a time (a closed loop of one client), until
 * --seconds have passed, and reports medians of host set-up and run
 * time, each repeat scaled to a reference machine speed by the
 * Yardstick loop timed just before it. --trace 1 makes the per-layer
 * ledger instead: deterministic work counts of every layer, the
 * in-situ host split of the cycle loop (TimedCore), translation spans,
 * and host ns/op of each layer replayed alone on the run's recorded
 * memory stream. --work-dir holds that recording while it is replayed
 * (default: the current directory).
 *
 * Every simulation's RunStats and stat dump must equal the first
 * one's, and the first must equal runConfigFull()'s; decorated,
 * span-armed and trace-capturing runs must equal the plain run. Any mismatch, error
 * or exception counts as a failed simulation and makes the exit code 1.
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * Exit codes: 0 ok, 1 a check failed, 2 bad usage.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "replay.hh"
#include "rig.hh"
#include "sim/parse_util.hh"
#include "sim/stats.hh"
#include "telemetry/span.hh"
#include "trace/memtrace.hh"

using namespace gpummu;
using namespace perfbench;

namespace {

/** Untraced repeats (and traced pairs) a run makes at the least. */
constexpr std::size_t kMinRepeats = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    unsigned seconds = 20;
    int trace = 0;
    std::string workDir = ".";
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Simulations attempted and failed, with the reason of each failure. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    /** Run one simulation step @p f, which returns "" on success or
     *  the reason it failed; exceptions count as failures. */
    bool
    attempt(const std::string &what, const std::function<std::string()> &f)
    {
        ++attempted;
        std::string why;
        try {
            why = f();
        } catch (const std::exception &e) {
            why = std::string("exception: ") + e.what();
        }
        if (why.empty())
            return true;
        ++failed;
        errors.push_back(what + ": " + why);
        return false;
    }
};

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <1..120> --trace <0|1> [--work-dir <dir>]\n"
              << "workloads:";
    for (const WorkloadSpec &s : workloadSpecs())
        std::cerr << " " << s.name;
    std::cerr << "\n";
    return 2;
}

/** Strict parse; returns "" or the usage error. */
std::string
parseArgs(int argc, char **argv, Args &a)
{
    std::vector<std::string> seen;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            return "missing value for '" + key + "'";
        const std::string val = argv[i + 1];
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            return "duplicate argument '" + key + "'";
        seen.push_back(key);
        if (key == "--workload") {
            if (findWorkload(val) == nullptr)
                return "unknown workload '" + val + "'";
            a.workload = val;
        } else if (key == "--seed") {
            if (!parseNum(val, a.seed))
                return "bad --seed '" + val + "'";
        } else if (key == "--seconds") {
            if (!parseNum(val, a.seconds) || a.seconds < 1 ||
                a.seconds > 120)
                return "bad --seconds '" + val + "'";
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return "bad --trace '" + val + "' (want 0 or 1)";
            a.trace = val == "1" ? 1 : 0;
        } else if (key == "--work-dir") {
            if (val.empty())
                return "empty --work-dir";
            a.workDir = val;
        } else {
            return "unknown argument '" + key + "'";
        }
    }
    if (a.workload.empty())
        return "--workload is required";
    return "";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Peak resident memory of this process image, in MiB: VmHWM, which
 * execve() resets (ru_maxrss would carry over the peak of the process
 * that forked this one). 0 when /proc is unavailable.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** "" when @p s is a plausible completed run, else what is wrong. */
std::string
sanity(const RunStats &s)
{
    if (s.cycles == 0 || s.instructions == 0)
        return "simulation did no work";
    if (s.memInstructions > s.instructions || s.tlbHits > s.tlbAccesses ||
        s.l1Hits > s.l1Accesses)
        return "inconsistent RunStats counters";
    return "";
}

/** What one simulation produced, in runConfigFull()'s format: the
 *  RunStats summary and the JSON dump of the whole stat registry. */
struct Outputs
{
    RunStats stats;
    std::string json;
};

Outputs
outputsOf(Rig &rig, const SystemConfig &cfg, const RunStats &s)
{
    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(rig.workload->name())
       << "\",\"config\":\"" << jsonEscape(cfg.name) << "\",\"summary\":";
    dumpRunStatsJson(os, s);
    os << ",\"stats\":";
    rig.gpu->stats().dumpJson(os);
    os << "}";
    return Outputs{s, os.str()};
}

/** Bit-identity of two runs: RunStats (fast-forward amount included;
 *  no run here arms telemetry, the one observer allowed to change it)
 *  and every registered stat. */
std::string
compareRuns(const Outputs &got, const Outputs &want)
{
    const RunStats &g = got.stats, &w = want.stats;
    if (!(g == w) || g.cyclesFastForwarded != w.cyclesFastForwarded) {
        std::ostringstream os;
        os << "RunStats differ from the reference run (cycles " << g.cycles
           << " vs " << w.cycles << ", events " << g.eventsFired << " vs "
           << w.eventsFired << ")";
        return os.str();
    }
    if (got.json != want.json)
        return "stat registry dump differs from the reference run";
    return "";
}

/** Removes a file when it goes out of scope, on every exit path. */
struct RemoveOnExit
{
    std::filesystem::path path;
    ~RemoveOnExit()
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
};

/** Sum of one per-core histogram across the GPU's cores. */
std::uint64_t
coreHistSum(GpuTop &gpu, const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < gpu.numCores(); ++i) {
        const Histogram *h = gpu.stats().findHistogram(
            "core" + std::to_string(i) + suffix);
        if (h != nullptr)
            sum += h->sum();
    }
    return sum;
}

/** Deterministic per-layer work counts of a finished plain run. */
std::vector<Metric>
layerCounts(Rig &rig, const RunStats &s)
{
    GpuTop &gpu = *rig.gpu;
    std::uint64_t walks = 0, refs = s.walkRefsIssued,
                  elim = s.walkRefsEliminated, pwc_hits = 0, merges = 0;
    std::uint64_t stalls[kNumStallReasons] = {};
    for (unsigned i = 0; i < gpu.numCores(); ++i) {
        ShaderCore &core = gpu.core(i);
        walks += core.mmu().walkers().walksCompleted();
        pwc_hits += core.mmu().walkers().pwcHits();
        merges += core.mmu().mergedWalks();
        for (std::size_t r = 0; r < kNumStallReasons; ++r) {
            stalls[r] += core.stallAccounting().reasonTotal(
                static_cast<StallReason>(r));
        }
    }
    std::uint64_t l2_hits = 0, l2_merges = 0, io_lookups = 0, io_hits = 0;
    if (L2Tlb *l2 = rig.sharedL2Tlb()) {
        l2_hits = l2->hits();
        l2_merges = l2->mshrMerges();
    }
    if (Iommu *io = rig.sharedIommu()) {
        io_lookups = io->lookups();
        io_hits = io->hits();
        walks += io->walkers().walksCompleted();
        refs += io->walkers().refsIssued();
        elim += io->walkers().refsEliminated();
        pwc_hits += io->walkers().pwcHits();
    }
    const MemorySystem &mem = gpu.memorySystem();
    const double cores = gpu.numCores();
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto stall = [&](StallReason r) {
        return d(stalls[static_cast<std::size_t>(r)]);
    };
    return {
        {"sim.events", d(s.eventsFired), "count"},
        {"gpu.core_ticks", d(s.cycles - s.cyclesFastForwarded) * cores,
         "count"},
        {"gpu.cycles_skipped", d(s.cyclesFastForwarded), "count"},
        {"gpu.warp_instrs", d(s.instructions), "count"},
        {"gpu.mem_instrs", d(s.memInstructions), "count"},
        {"gpu.lines_per_instr_mean",
         ratio(d(coreHistSum(gpu, ".mem.lines_per_instr")),
               d(s.memInstructions)),
         "lines"},
        {"gpu.page_divergence_mean", s.avgPageDivergence, "pages"},
        {"mmu.tlb_lookups", d(s.tlbAccesses), "count"},
        {"mmu.tlb_hit_ratio", ratio(d(s.tlbHits), d(s.tlbAccesses)),
         "ratio"},
        {"mmu.walks", d(walks), "count"},
        {"mmu.walk_refs_issued", d(refs), "count"},
        {"mmu.walk_ref_elim_ratio", ratio(d(elim), d(refs + elim)),
         "ratio"},
        {"mmu.pwc_hit_ratio", ratio(d(pwc_hits), d(refs)), "ratio"},
        {"mmu.mshr_merges", d(merges), "count"},
        {"mmu.l2tlb_hits", d(l2_hits), "count"},
        {"mmu.l2tlb_mshr_merges", d(l2_merges), "count"},
        {"mmu.iommu_lookups", d(io_lookups), "count"},
        {"mmu.iommu_hit_ratio", ratio(d(io_hits), d(io_lookups)), "ratio"},
        {"mem.l1_accesses", d(s.l1Accesses), "count"},
        {"mem.l1_hit_ratio", ratio(d(s.l1Hits), d(s.l1Accesses)), "ratio"},
        {"mem.l2_accesses", d(mem.l2Accesses()), "count"},
        {"mem.l2_hit_ratio", ratio(d(mem.l2Hits()), d(mem.l2Accesses())),
         "ratio"},
        {"mem.dram_accesses", d(mem.dramAccesses()), "count"},
        {"gpu.stall.tlb_miss", stall(StallReason::TlbMiss), "cycles"},
        {"gpu.stall.walker_structural", stall(StallReason::WalkerStructural),
         "cycles"},
        {"gpu.stall.dram", stall(StallReason::Dram), "cycles"},
        {"gpu.stall.l1_miss", stall(StallReason::L1Miss), "cycles"},
    };
}

std::vector<Metric>
spanMetrics(const SpanTracker &spans)
{
    const Histogram &queue = spans.stageHist(SpanStage::WalkGrant);
    const Histogram &service = spans.stageHist(SpanStage::WalkDone);
    return {
        {"mmu.span_e2e_p50", spans.endToEnd().percentile(0.50), "cycles"},
        {"mmu.span_e2e_p95", spans.endToEnd().percentile(0.95), "cycles"},
        {"mmu.walk_queueing_frac",
         ratio(static_cast<double>(queue.sum()),
               static_cast<double>(queue.sum() + service.sum())),
         "ratio"},
        {"mmu.walk_service_mean", service.mean(), "cycles"},
    };
}

void
printProvenance(const Args &a, const WorkloadSpec &spec)
{
    std::cout << "perfbench: workload=" << spec.name
              << " bench=" << benchmarkName(spec.bench)
              << " preset=presets::" << spec.preset
              << " config=" << spec.cfg.name << " scale=" << spec.scale
              << " cores=" << spec.cfg.numCores << " seed=" << a.seed
              << " seconds=" << a.seconds << " trace=" << a.trace << "\n"
              << "perfbench: build_type=" << PERFBENCH_BUILD_TYPE
              << " cxx_flags='" << PERFBENCH_CXX_FLAGS
              << "' compiler='" << PERFBENCH_COMPILER << "'\n"
              << "perfbench: load=closed loop, one simulation at a time, "
                 "single-threaded\n"
              << "perfbench: simulated caches, TLBs and walk caches start "
                 "empty (cold) on every simulation\n"
              << "perfbench: the model is unvalidated against hardware; "
                 "no error figure is given\n";
}

void
printResult(const Ledger &ledger, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::cout << "  " << m.name << " = " << jsonNum(m.value) << " "
                  << m.unit << "\n";
    }
    for (const std::string &e : ledger.errors)
        std::cout << "FAILED " << e << "\n";
    std::cout << "{\"correct\": " << (ledger.failed ? "false" : "true")
              << ", \"attempted\": " << ledger.attempted
              << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::cout << (i ? ", " : "") << "\"" << jsonEscape(m.name)
                  << "\": {\"value\": " << jsonNum(m.value)
                  << ", \"unit\": \"" << jsonEscape(m.unit) << "\"}";
    }
    std::cout << "}}" << std::endl;
}

/**
 * Machine-speed yardstick. On a shared host the speed of this process
 * drifts by ±25% over seconds to minutes, so raw medians of two runs
 * minutes apart differ by more than any change worth measuring. A
 * fixed loop timed right before each simulation drifts with it: it
 * chases a fixed pseudo-random mapping (the walk settles into a short
 * cycle, so each step is an L1-resident dependent load plus a
 * data-dependent branch), the kind of work the simulator's hot loop
 * does. Each repeat's host times are scaled by kYardstickRefSeconds /
 * (its yardstick time), giving host seconds at a reference speed; the
 * medians of those scaled times vary several times less between runs
 * than raw medians do. The loop is benchmark code, so no simulator
 * change can move it.
 */
class Yardstick
{
  public:
    /** Unit of the scaled times: the yardstick's typical time on the
     *  4-vCPU Xeon host the benchmark was defined on. */
    static constexpr double kRefSeconds = 0.0125;

    Yardstick() : next_(1u << 18)
    {
        std::uint64_t x = 88172645463325252ULL;
        for (std::uint32_t &e : next_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = static_cast<std::uint32_t>(x & (next_.size() - 1));
        }
    }

    /** Seconds one pass of the loop takes now. */
    double
    measure() const
    {
        const auto t0 = Clock::now();
        std::uint32_t i = 0;
        std::uint64_t acc = 0;
        for (std::uint64_t k = 0; k < 2'000'000; ++k) {
            i = next_[i];
            acc += i * 31u;
            if (acc & 8)
                acc ^= k;
        }
        sink_ = acc;
        return secondsSince(t0);
    }

  private:
    std::vector<std::uint32_t> next_;
    mutable volatile std::uint64_t sink_ = 0;
};

/** --trace 0: medians of untraced repeats, each scaled by the
 *  yardstick measured just before it. */
std::vector<Metric>
measureEndToEnd(const WorkloadSpec &spec,
                const WorkloadParams &params, Clock::time_point deadline,
                Ledger &ledger)
{
    Outputs ref;
    if (!ledger.attempt("reference runConfigFull", [&] {
            RunOutput out = runConfigFull(spec.bench, spec.cfg, params);
            ref = Outputs{out.stats, std::move(out.statsJson)};
            return sanity(ref.stats);
        }))
        return {};

    const Yardstick yardstick;
    std::vector<double> setup, run, cps, ips, raw_run, yard;
    while (run.size() < kMinRepeats || Clock::now() < deadline) {
        const bool ok = ledger.attempt(
            "repeat " + std::to_string(run.size() + 1), [&] {
                const double y = yardstick.measure();
                const double scale = Yardstick::kRefSeconds / y;
                const auto t0 = Clock::now();
                Rig rig = buildRig(spec, params);
                const double setup_s = secondsSince(t0);
                const auto t1 = Clock::now();
                const RunStats s = runRig(rig, spec.cfg);
                const double run_s = secondsSince(t1);
                yard.push_back(y);
                raw_run.push_back(run_s);
                setup.push_back(setup_s * scale);
                run.push_back(run_s * scale);
                cps.push_back(static_cast<double>(s.cycles) / run.back());
                ips.push_back(static_cast<double>(s.instructions) /
                              run.back());
                return compareRuns(outputsOf(rig, spec.cfg, s), ref);
            });
        if (!ok)
            break;
    }
    std::cout << "perfbench: " << run.size()
              << " untraced repeats; raw wall-clock run_s median "
              << jsonNum(median(raw_run)) << ", yardstick median "
              << jsonNum(median(yard)) << " s (reference "
              << jsonNum(Yardstick::kRefSeconds) << " s)\n";
    return {
        {"run_s", median(run), "s"},
        {"sim_cycles_per_s", median(cps), "cycles/s"},
        {"sim_instrs_per_s", median(ips), "instrs/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_cycles", static_cast<double>(ref.stats.cycles), "cycles"},
    };
}

/** --trace 1: the per-layer ledger. */
std::vector<Metric>
measureLayers(const Args &a, const WorkloadSpec &spec,
              const WorkloadParams &params, Clock::time_point deadline,
              Ledger &ledger)
{
    std::vector<Metric> out;
    Outputs ref;
    std::uint64_t page_sum = 0, line_sum = 0;

    // Plain run: the reference and the deterministic counts.
    double plain_s = 0.0;
    if (!ledger.attempt("plain run", [&] {
            Rig rig = buildRig(spec, params);
            const auto t0 = Clock::now();
            const RunStats s = runRig(rig, spec.cfg);
            plain_s = secondsSince(t0);
            ref = outputsOf(rig, spec.cfg, s);
            out = layerCounts(rig, s);
            page_sum = coreHistSum(*rig.gpu, ".mem.page_divergence");
            line_sum = coreHistSum(*rig.gpu, ".mem.lines_per_instr");
            return sanity(s);
        }))
        return {};

    // Decorated (TimedCore) runs alternate with plain runs; their
    // wall-time ratio is the tracing overhead.
    struct TracedRun
    {
        double wall;
        double tickSeconds; ///< in tick() and chargeSkipped()
        TickLedger ticks;
    };
    std::vector<TracedRun> traced;
    std::vector<double> overhead;
    const auto traced_run = [&](double plain_wall) {
        return ledger.attempt("decorated run", [&] {
            TracedRun tr{};
            const Observers obs{&tr.ticks, nullptr, nullptr};
            Rig rig = buildRig(spec, params, obs);
            const auto t0 = Clock::now();
            const std::uint64_t h0 = hostTicks();
            const RunStats s = runRig(rig, spec.cfg, obs);
            const std::uint64_t wall_ticks = hostTicks() - h0;
            tr.wall = secondsSince(t0);
            tr.tickSeconds = tr.wall *
                             static_cast<double>(tr.ticks.tickTicks +
                                                 tr.ticks.chargeTicks) /
                             static_cast<double>(wall_ticks);
            traced.push_back(tr);
            overhead.push_back(tr.wall / plain_wall);
            return compareRuns(outputsOf(rig, spec.cfg, s), ref);
        });
    };
    if (!traced_run(plain_s))
        return {};

    // Span-armed run that also captures the memory trace.
    SpanTracker spans;
    MemTraceData trace;
    const RemoveOnExit trace_file{
        std::filesystem::path(a.workDir) /
        (spec.name + "-" + std::to_string(a.seed) + "-" +
         std::to_string(::getpid()) + ".memtrace")};
    const bool captured = ledger.attempt("span-armed capture run", [&] {
        std::string why;
        {
            MemTraceWriter writer(trace_file.path.string());
            const Observers obs{nullptr, &spans, &writer};
            Rig rig = buildRig(spec, params, obs);
            const RunStats s = runRig(rig, spec.cfg, obs);
            why = compareRuns(outputsOf(rig, spec.cfg, s), ref);
        }
        std::string err;
        if (why.empty() &&
            !loadMemTraceFile(trace_file.path.string(), trace, err))
            why = "memtrace reload: " + err;
        if (why.empty() && trace.accesses.size() != ref.stats.memInstructions)
            why = "memtrace holds " + std::to_string(trace.accesses.size()) +
                  " accesses, the run issued " +
                  std::to_string(ref.stats.memInstructions);
        return why;
    });
    if (!captured)
        return {};
    for (Metric &m : spanMetrics(spans))
        out.push_back(std::move(m));

    ReplayResult replay;
    if (!ledger.attempt("layer replay", [&] {
            replay = replayLayers(spec, params, trace);
            if (!replay.error.empty())
                return replay.error;
            if (replay.coalescedPages != page_sum ||
                replay.coalescedLines != line_sum) {
                return "coalescer replay found " +
                       std::to_string(replay.coalescedPages) + " pages / " +
                       std::to_string(replay.coalescedLines) +
                       " lines, the run sampled " + std::to_string(page_sum) +
                       " / " + std::to_string(line_sum);
            }
            return std::string();
        }))
        return {};
    trace = MemTraceData{};
    for (const LayerTiming &l : replay.layers) {
        out.push_back({l.name + "_ns", l.nsPerOp(), "ns/op"});
        out.push_back({l.name + "_ops", static_cast<double>(l.ops), "count"});
    }

    // More plain/decorated pairs while the time budget lasts.
    while (traced.size() < kMinRepeats || Clock::now() < deadline) {
        double wall = 0.0;
        if (!ledger.attempt("plain run", [&] {
                Rig rig = buildRig(spec, params);
                const auto t0 = Clock::now();
                const RunStats s = runRig(rig, spec.cfg);
                wall = secondsSince(t0);
                return compareRuns(outputsOf(rig, spec.cfg, s), ref);
            }))
            return {};
        if (!traced_run(wall))
            return {};
    }

    // Report the decorated run of median wall time whole, so its tick
    // time and residual add up to its wall time exactly.
    std::sort(traced.begin(), traced.end(),
              [](const TracedRun &x, const TracedRun &y) {
                  return x.wall < y.wall;
              });
    const TracedRun &mid = traced[traced.size() / 2];
    const double tick_s = mid.tickSeconds;
    out.push_back({"trace.run_s", mid.wall, "s"});
    out.push_back({"gpu.tick_s", tick_s, "s"});
    out.push_back(
        {"gpu.tick_calls", static_cast<double>(mid.ticks.tickCalls), "count"});
    out.push_back({"sim.event_drain_s", mid.wall - tick_s, "s"});
    out.push_back({"trace.overhead_ratio", median(overhead), "ratio"});
    std::cout << "perfbench: " << traced.size()
              << " decorated runs; tracing overhead is the decorated / plain "
                 "wall-time ratio of back-to-back pairs\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (const std::string err = parseArgs(argc, argv, args); !err.empty())
        return usage(err);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::seconds(static_cast<long>(args.seconds));
    const WorkloadSpec &spec = *findWorkload(args.workload);
    WorkloadParams params;
    params.seed = args.seed;
    params.scale = spec.scale;

    printProvenance(args, spec);
    Ledger ledger;
    const std::vector<Metric> metrics =
        args.trace ? measureLayers(args, spec, params, deadline, ledger)
                   : measureEndToEnd(spec, params, deadline, ledger);
    if (metrics.empty() && ledger.failed == 0)
        ledger.failed = 1;
    std::cout << "perfbench: wall " << jsonNum(secondsSince(start))
              << " s for the whole measurement\n";
    printResult(ledger, metrics);
    return ledger.failed ? 1 : 0;
}
