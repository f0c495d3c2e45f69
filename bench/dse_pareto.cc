/**
 * @file
 * Pareto design-space autotuner driver (ROADMAP item 4).
 *
 *   dse_pareto [--grid=<name|spec>] [--bench=<name>] [--scale=<f>]
 *              [--seed=<n>] [--cores=<n>] [--jobs=<n>]
 *              [--resume-from=<json>] [--out=<json>]
 *              [--report=<html>]
 *
 * --grid takes a named grid (tiny | smoke | default) or a raw
 * "tlb_entries=64,128;walkers=1,1s;page=4k,2m" spec. Results are
 * keyed by a stable hash of (benchmark, seed, scale, cores, knobs);
 * --resume-from reloads a previous --out file and only simulates the
 * points it is missing, so a killed thousand-point sweep restarts
 * where it died and a completed one re-runs without simulating
 * anything. The emitted JSON is schema-versioned, validated before
 * the process exits, and byte-stable: fresh and fully-resumed sweeps
 * produce identical files.
 *
 * Exit codes: 0 ok, 1 usage/validation error, 2 I/O error.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/experiment.hh"
#include "dse/autotuner.hh"
#include "dse/report.hh"
#include "sim/parse_util.hh"

using namespace gpummu;

namespace {

// Strict full-token parsing comes from the shared helper
// (sim/parse_util.hh) — the local strtod-based copy this file used
// to carry moved there, locale-independent, for every bench CLI.

int
usage(const std::string &why)
{
    std::cerr << why << "\n"
              << "usage: dse_pareto [--grid=<tiny|smoke|default|"
                 "spec>] [--bench=<name>] [--scale=<f>] [--seed=<n>] "
                 "[--cores=<n>] [--jobs=<n>] [--resume-from=<json>] "
                 "[--out=<json>] [--report=<html>]\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string grid_arg = "default";
    std::string resume_from;
    std::string out_path = "dse_frontier.json";
    std::string report_path;
    DseOptions opt;
    opt.params.scale = 0.05;
    opt.params.seed = 42;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *key) -> const char * {
            const std::string k = std::string(key) + "=";
            return arg.rfind(k, 0) == 0 ? arg.c_str() + k.size()
                                        : nullptr;
        };
        if (const char *v = value("--grid")) {
            grid_arg = v;
        } else if (const char *v = value("--bench")) {
            const auto id = benchmarkByName(v);
            if (!id) {
                return usage("unknown benchmark '" + std::string(v) +
                             "'; one of: " + benchmarkNames());
            }
            opt.bench = *id;
        } else if (const char *v = value("--scale")) {
            if (!parseScale(v, opt.params.scale))
                return usage("--scale wants a positive number");
        } else if (const char *v = value("--seed")) {
            if (!parseNum(v, opt.params.seed))
                return usage("--seed wants an unsigned integer");
        } else if (const char *v = value("--cores")) {
            if (!parseNum(v, opt.numCores) || opt.numCores == 0)
                return usage("--cores wants a positive integer");
        } else if (const char *v = value("--jobs")) {
            if (!parseNum(v, opt.jobs) || opt.jobs == 0)
                return usage("--jobs wants a positive integer");
        } else if (const char *v = value("--resume-from")) {
            resume_from = v;
        } else if (const char *v = value("--out")) {
            out_path = v;
            if (out_path.empty())
                return usage("--out wants a path");
        } else if (const char *v = value("--report")) {
            report_path = v;
            if (report_path.empty())
                return usage("--report wants a path");
        } else {
            return usage("unknown option: " + arg);
        }
    }

    DseGrid grid;
    if (!namedGrid(grid_arg, grid)) {
        std::string err;
        if (!parseGridSpec(grid_arg, grid, &err))
            return usage("bad --grid: " + err);
    }

    std::map<std::string, DsePointMetrics> cache;
    if (!resume_from.empty()) {
        std::ifstream f(resume_from, std::ios::binary);
        if (!f) {
            std::cerr << "cannot open --resume-from file '"
                      << resume_from << "'\n";
            return 2;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        std::string err;
        if (!loadDseCache(ss.str(), cache, &err)) {
            std::cerr << "bad --resume-from file '" << resume_from
                      << "': " << err << "\n";
            return 2;
        }
    }

    std::cout << "=== DSE Pareto autotuner ===\nbench="
              << benchmarkName(opt.bench)
              << " scale=" << opt.params.scale
              << " seed=" << opt.params.seed
              << " cores=" << opt.numCores << "\ngrid ("
              << grid.numPoints() << " points): "
              << gridSpecString(grid) << "\n";

    const DseResult result = runDse(grid, opt, cache);
    std::cout << "simulated " << result.simulated
              << " points, reused " << result.reused
              << " cached, frontier " << result.frontier.size()
              << " of " << result.points.size() << "\n\n";

    // Frontier table, cheapest area first.
    {
        ReportTable table(
            {"config", "cycles", "area", "tlb-miss", "walk-refs"});
        std::vector<std::size_t> order = result.frontier;
        std::sort(order.begin(), order.end(),
                  [&result](std::size_t a, std::size_t b) {
                      const auto &pa = result.points[a];
                      const auto &pb = result.points[b];
                      if (pa.area != pb.area)
                          return pa.area < pb.area;
                      return pa.metrics.cycles < pb.metrics.cycles;
                  });
        for (std::size_t idx : order) {
            const DsePointResult &p = result.points[idx];
            const double miss =
                p.metrics.tlbAccesses
                    ? 1.0 - static_cast<double>(p.metrics.tlbHits) /
                                static_cast<double>(
                                    p.metrics.tlbAccesses)
                    : 0.0;
            table.addRow({"dse-" + knobSpec(p.knobs),
                          std::to_string(p.metrics.cycles),
                          ReportTable::num(p.area, 2),
                          ReportTable::pct(miss),
                          std::to_string(p.metrics.walkRefsIssued)});
        }
        table.print(std::cout);
    }

    // Emit, then re-validate our own output: a writer regression
    // must fail the run, not archive a corrupt cache.
    const std::string json = emitDseJson(result);
    const DseValidation val = validateDseJson(json);
    if (!val.ok()) {
        for (const std::string &e : val.errors)
            std::cerr << "schema violation: " << e << "\n";
        return 1;
    }
    {
        std::ofstream f(out_path,
                        std::ios::binary | std::ios::trunc);
        if (!f || !(f << json) || !f.flush()) {
            std::cerr << "cannot write --out file '" << out_path
                      << "'\n";
            return 2;
        }
    }
    std::cout << "\nfrontier JSON -> " << out_path << "\n";

    if (!report_path.empty()) {
        if (!writeDseHtmlReportFile(report_path, result)) {
            std::cerr << "cannot write --report file '"
                      << report_path << "'\n";
            return 2;
        }
        std::cout << "HTML report -> " << report_path << "\n";
    }
    return 0;
}
