/**
 * @file
 * Memory-trace capture/replay driver (ROADMAP item 5).
 *
 * Capture a replayable memtrace from a registry benchmark, or replay
 * a previously captured trace back through the full TLB / PTW /
 * L2-TLB / IOMMU stack:
 *
 *   trace_replay --capture=<bench> --trace=<file> [--config=<name>]
 *                [--scale=<f>] [--seed=<n>] [--cores=<n>]
 *                [--stats-out=<json>] [--check]
 *   trace_replay --replay=<file> [--config=<name>] [--cores=<n>]
 *                [--stats-out=<json>] [--check]
 *
 * A capture run simulates the benchmark once with the observation-only
 * MemTraceWriter armed; because the writer registers no stats, the
 * run's JSON dump is byte-identical to an unarmed run's. Replaying the
 * trace under the same config reproduces that dump bit-for-bit (the CI
 * smoke job cmp's the two files); replaying under a *different*
 * --config treats the trace as a portable workload and drives the new
 * design point with the recorded reference stream.
 *
 * --config accepts the preset names the framework prints in stat
 * dumps (no-tlb, naive-tlb-<n>p, naive-tlb-<n>ptw, tlb-hum,
 * tlb-hum-overlap, augmented-tlb, ideal-tlb, iommu), optionally
 * suffixed with +2mb for large pages. Replay defaults to the config
 * recorded in the trace's meta line, falling back to augmented-tlb.
 *
 * Exit codes: 0 ok, 1 runtime error, 2 usage error.
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "sim/parse_util.hh"
#include "trace/memtrace.hh"
#include "workloads/replay.hh"

using namespace gpummu;

namespace {

int
usage(const std::string &why)
{
    std::cerr << why << "\n"
              << "usage: trace_replay --capture=<bench> "
                 "--trace=<file> [--config=<name>] [--scale=<f>] "
                 "[--seed=<n>] [--cores=<n>] [--stats-out=<json>] "
                 "[--check]\n"
                 "       trace_replay --replay=<file> "
                 "[--config=<name>] [--cores=<n>] "
                 "[--stats-out=<json>] [--check]\n";
    return 2;
}

/**
 * Resolve a preset by the name it prints in stat dumps. A trailing
 * "+2mb" applies presets::withLargePages to the base preset, mirroring
 * how the names are composed.
 */
bool
configByName(const std::string &name, SystemConfig &out)
{
    std::string base = name;
    bool large = false;
    const std::string suffix = "+2mb";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        large = true;
        base.resize(base.size() - suffix.size());
    }
    if (base == "no-tlb") {
        out = presets::noTlb();
    } else if (base == "naive-tlb-3p") {
        out = presets::naiveTlb(3);
    } else if (base == "naive-tlb-4p") {
        out = presets::naiveTlb(4);
    } else if (base == "naive-tlb-8ptw") {
        out = presets::naiveTlbMultiPtw(8);
    } else if (base == "tlb-hum") {
        out = presets::tlbHitUnderMiss();
    } else if (base == "tlb-hum-overlap") {
        out = presets::tlbCacheOverlap();
    } else if (base == "augmented-tlb") {
        out = presets::augmentedTlb();
    } else if (base == "ideal-tlb") {
        out = presets::idealTlb();
    } else if (base == "iommu") {
        out = presets::iommu();
    } else {
        return false;
    }
    if (large)
        out = presets::withLargePages(out);
    return true;
}

bool
writeStats(const std::string &path, const std::string &json)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f || !(f << json) || !f.flush())
        return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string capture_bench, trace_path, replay_path;
    std::string config_name, stats_out;
    WorkloadParams params;
    params.scale = 0.05;
    params.seed = 42;
    unsigned cores = 0;
    bool check = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *key) -> const char * {
            const std::string k = std::string(key) + "=";
            return arg.rfind(k, 0) == 0 ? arg.c_str() + k.size()
                                        : nullptr;
        };
        if (const char *v = value("--capture")) {
            capture_bench = v;
        } else if (const char *v = value("--trace")) {
            trace_path = v;
        } else if (const char *v = value("--replay")) {
            replay_path = v;
        } else if (const char *v = value("--config")) {
            config_name = v;
        } else if (const char *v = value("--scale")) {
            if (!parseScale(v, params.scale)) {
                return usage("--scale wants a positive number, got '" +
                             std::string(v) + "'");
            }
        } else if (const char *v = value("--seed")) {
            if (!parseNum(v, params.seed)) {
                return usage("--seed wants an unsigned integer, "
                             "got '" + std::string(v) + "'");
            }
        } else if (const char *v = value("--cores")) {
            if (!parseNum(v, cores) || cores == 0) {
                return usage("--cores wants a positive integer, "
                             "got '" + std::string(v) + "'");
            }
        } else if (const char *v = value("--stats-out")) {
            stats_out = v;
            if (stats_out.empty())
                return usage("--stats-out wants a path");
        } else if (arg == "--check") {
            check = true;
        } else {
            return usage("unknown option: " + arg);
        }
    }

    const bool capturing = !capture_bench.empty();
    const bool replaying = !replay_path.empty();
    if (capturing == replaying)
        return usage("pick exactly one of --capture and --replay");
    if (capturing && trace_path.empty())
        return usage("--capture needs --trace=<output file>");
    if (replaying && !trace_path.empty())
        return usage("--trace is capture-only (the replay input is "
                     "--replay's value)");

    RunOutput out;
    SystemConfig cfg;
    if (capturing) {
        const auto bench = benchmarkByName(capture_bench);
        if (!bench) {
            return usage("unknown benchmark '" + capture_bench +
                         "'; one of: " + benchmarkNames());
        }
        if (config_name.empty())
            config_name = "augmented-tlb";
        if (!configByName(config_name, cfg))
            return usage("unknown --config: " + config_name);
        if (cores != 0)
            cfg.numCores = cores;
        cfg.checkInvariants = check;

        MemTraceWriter writer(trace_path);
        out = runConfigFull(*bench, cfg, params, {.memtrace = &writer});
        std::cout << "captured " << writer.accessesRecorded()
                  << " accesses, " << writer.branchesRecorded()
                  << " branches -> " << trace_path << " ["
                  << capture_bench << " / " << cfg.name << "]\n";
    } else {
        auto workload = TraceReplayWorkload::fromFile(replay_path);
        if (config_name.empty()) {
            // Prefer the design point the trace was captured under.
            if (!configByName(workload->meta().config, cfg))
                cfg = presets::augmentedTlb();
        } else if (!configByName(config_name, cfg)) {
            return usage("unknown --config: " + config_name);
        }
        // Topology is run identity too: default to the recorded core
        // count so an unqualified replay is bit-identical.
        cfg.numCores = cores != 0 ? cores : workload->meta().numCores;
        cfg.checkInvariants = check;

        out = runWorkloadFull(*workload, cfg);
        std::cout << "replayed " << workload->meta().bench << " ("
                  << workload->meta().numBlocks << " blocks) on "
                  << cfg.name << ": cycles=" << out.stats.cycles
                  << " walk_refs=" << out.stats.walkRefsIssued
                  << " tlb_miss="
                  << ReportTable::pct(out.stats.tlbMissRate())
                  << "\n";
    }

    if (!stats_out.empty()) {
        if (!writeStats(stats_out, out.statsJson)) {
            std::cerr << "cannot write --stats-out file '"
                      << stats_out << "'\n";
            return 1;
        }
        std::cout << "stats JSON -> " << stats_out << "\n";
    }
    return 0;
}
