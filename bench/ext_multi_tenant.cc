/**
 * @file
 * Extension experiment: multi-tenant address translation.
 *
 * The paper's evaluation is single-process; its Section 2.2
 * programmability argument (context switches, shootdowns, paging)
 * is qualitative. This bench makes the OS side quantitative: two
 * processes with overlapping virtual ranges time-share an IOMMU-mode
 * GPU, demand-page their footprints, and pay context-switch,
 * minor-fault and TLB-shootdown costs on the shared translation
 * structures.
 *
 *   --scale=<f>                workload scale (default 0.05)
 *   --seed=<n>                 workload seed
 *   --bench-a/--bench-b=<name> the two tenants (default bfs +
 *                              pathfinder, the irregular/regular pair)
 *   --blocks-per-slice=<n>     time-slice quantum in thread blocks
 *   --switch-penalty=<cycles>  IOMMU context-switch cost
 *   --fault-latency=<cycles>   minor-fault service latency
 *   --shootdown-base=<cycles>  fixed shootdown initiation cost
 *   --shootdown-per-entry=<c>  per-invalidated-entry cost
 *   --eager                    eagerly back regions (no demand paging)
 *   --check                    arm the differential checker
 *   --trace=<file>             re-run with event tracing armed
 *   --sample-interval=<n>      telemetry interval for the re-run
 *   --sample-out=<file>        interval series (.csv or .json)
 *   --report=<file>            self-contained HTML run report
 *   --spans=<file>             re-run with translation-lifecycle
 *                              span tracking armed and export the
 *                              per-stage latency decomposition
 *                              (.csv or .json); span keys carry each
 *                              tenant's ASID, so the export breaks
 *                              the anatomy down per process
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/multi_tenant.hh"
#include "core/presets.hh"
#include "sim/parse_util.hh"
#include "telemetry/report.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

using namespace gpummu;

namespace {

BenchmarkId
benchByName(const char *name)
{
    if (const auto id = benchmarkByName(name))
        return *id;
    std::cerr << "unknown benchmark '" << name
              << "'; one of: " << benchmarkNames() << "\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    MultiTenantConfig cfg = defaultMultiTenant(/*scale=*/0.05);
    cfg.params.seed = 42;
    std::string trace_file;
    Cycle sample_interval = 0;
    std::string sample_out;
    std::string report_file;
    std::string spans_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *key) -> const char * {
            const std::string k = std::string(key) + "=";
            return arg.rfind(k, 0) == 0 ? arg.c_str() + k.size()
                                        : nullptr;
        };
        // Numeric flags parse strictly (sim/parse_util.hh): the
        // whole value must be a number, or the flag is an error.
        auto bad = [&arg](const char *what) {
            std::cerr << arg << ": wants " << what << "\n";
            return 1;
        };
        if (const char *v = value("--scale")) {
            if (!parseDouble(v, cfg.params.scale) ||
                cfg.params.scale <= 0.0) {
                return bad("a positive number");
            }
        } else if (const char *v = value("--seed")) {
            if (!parseNum(v, cfg.params.seed))
                return bad("a non-negative int");
        } else if (const char *v = value("--bench-a")) {
            cfg.tenants.at(0) = {benchByName(v), v};
        } else if (const char *v = value("--bench-b")) {
            cfg.tenants.at(1) = {benchByName(v), v};
        } else if (const char *v = value("--blocks-per-slice")) {
            if (!parseNum(v, cfg.blocksPerSlice) ||
                cfg.blocksPerSlice == 0) {
                return bad("a positive int");
            }
        } else if (const char *v = value("--switch-penalty")) {
            if (!parseNum(v, cfg.os.switchPenalty))
                return bad("a cycle count");
        } else if (const char *v = value("--fault-latency")) {
            if (!parseNum(v, cfg.os.faultLatency))
                return bad("a cycle count");
        } else if (const char *v = value("--shootdown-base")) {
            if (!parseNum(v, cfg.os.shootdownBase))
                return bad("a cycle count");
        } else if (const char *v = value("--shootdown-per-entry")) {
            if (!parseNum(v, cfg.os.shootdownPerEntry))
                return bad("a cycle count");
        } else if (arg == "--eager") {
            cfg.lazyBacking = false;
        } else if (arg == "--check") {
            cfg.system.checkInvariants = true;
        } else if (const char *v = value("--trace")) {
            trace_file = v;
        } else if (const char *v = value("--sample-interval")) {
            if (!parseNum(v, sample_interval) ||
                sample_interval == 0) {
                return bad("a positive cycle count");
            }
        } else if (const char *v = value("--sample-out")) {
            sample_out = v;
        } else if (const char *v = value("--report")) {
            report_file = v;
        } else if (const char *v = value("--spans")) {
            spans_file = v;
            const std::string p = spans_file;
            const auto dot = p.rfind('.');
            const std::string ext =
                dot == std::string::npos ? "" : p.substr(dot);
            if (ext != ".csv" && ext != ".json") {
                std::cerr
                    << "--spans wants a .csv or .json path\n";
                return 1;
            }
        } else {
            std::cerr << "unknown option: " << arg << "\n";
            return 1;
        }
    }

    std::cout << "=== Extension: multi-tenant IOMMU (shootdowns, "
                 "faults, context switches) ===\nscale="
              << cfg.params.scale << " tenants="
              << cfg.tenants.at(0).name << "+"
              << cfg.tenants.at(1).name
              << " blocks/slice=" << cfg.blocksPerSlice
              << (cfg.lazyBacking ? " demand-paged" : " eager")
              << "\n\n";

    const MultiTenantResult res = runMultiTenant(cfg);

    std::cout << "tenant       asid  blocks  active-cycles  "
                 "instructions  ipc\n";
    std::cout << "------------------------------------------------"
                 "---------\n";
    for (const TenantResult &t : res.tenants) {
        const double ipc =
            t.activeCycles
                ? static_cast<double>(t.instructions) /
                      static_cast<double>(t.activeCycles)
                : 0.0;
        std::printf("%-12s %4u  %6llu  %13llu  %12llu  %.3f\n",
                    t.name.c_str(), t.asid,
                    static_cast<unsigned long long>(t.blocks),
                    static_cast<unsigned long long>(t.activeCycles),
                    static_cast<unsigned long long>(t.instructions),
                    ipc);
    }
    const double hit_rate =
        res.iommuLookups ? static_cast<double>(res.iommuHits) /
                               static_cast<double>(res.iommuLookups)
                         : 0.0;
    std::cout << "\ntotal cycles      " << res.totalCycles
              << "\nslices            " << res.slices
              << "\ncontext switches  " << res.contextSwitches
              << "\nshootdowns        " << res.shootdowns << " ("
              << res.shootdownEntries << " entries)"
              << "\nminor faults      " << res.faults
              << "\n2M coalesces      " << res.coalesces
              << " (splinters " << res.splinters << ")"
              << "\niommu hit rate    " << hit_rate << "\n";

    // One armed re-run serves --trace and --spans together so the
    // Chrome trace carries the translation span flow arrows.
    if (!trace_file.empty() || !spans_file.empty()) {
        TraceSink sink;
        SpanTracker spans;
        runMultiTenant(
            cfg, {.trace = trace_file.empty() ? nullptr : &sink,
                  .spans = spans_file.empty() ? nullptr : &spans});
        if (!trace_file.empty()) {
            if (!sink.writeChromeTraceFile(trace_file)) {
                std::cerr << "failed to write trace: " << trace_file
                          << "\n";
                return 1;
            }
            std::cerr << "trace: " << sink.size() << " events -> "
                      << trace_file << "\n";
        }
        if (!spans_file.empty()) {
            if (spans.empty()) {
                std::cerr << "span table is empty: no translation "
                             "requests were observed\n";
                return 1;
            }
            const bool csv =
                spans_file.size() >= 4 &&
                spans_file.compare(spans_file.size() - 4, 4,
                                   ".csv") == 0;
            const bool ok = csv ? spans.writeCsvFile(spans_file)
                                : spans.writeJsonFile(spans_file);
            if (!ok) {
                std::cerr << "failed to write spans: " << spans_file
                          << "\n";
                return 1;
            }
            spans.writeSummary(std::cerr);
            std::cerr << "spans: " << spans.spansClosed()
                      << " closed (" << spans.spansOpen()
                      << " open at end) -> " << spans_file << "\n";
        }
    }
    if (sample_interval != 0) {
        TelemetryConfig tcfg;
        tcfg.sampleInterval = sample_interval;
        Telemetry telemetry(tcfg);
        SpanTracker spans;
        SpanTracker *span_arm =
            (!spans_file.empty() && !report_file.empty()) ? &spans
                                                          : nullptr;
        runMultiTenant(cfg, {.telemetry = &telemetry, .spans = span_arm});
        if (!sample_out.empty()) {
            const bool csv =
                sample_out.size() >= 4 &&
                sample_out.compare(sample_out.size() - 4, 4,
                                   ".csv") == 0;
            const bool ok =
                csv ? telemetry.writeCsvFile(sample_out)
                    : telemetry.writeJsonFile(sample_out);
            if (!ok) {
                std::cerr << "failed to write samples: " << sample_out
                          << "\n";
                return 1;
            }
            std::cerr << "telemetry: "
                      << telemetry.sampler().intervals().size()
                      << " intervals -> " << sample_out << "\n";
        }
        if (!report_file.empty()) {
            if (!writeHtmlReportFile(report_file, telemetry,
                                     span_arm)) {
                std::cerr << "report has an empty hot-page table: "
                          << report_file << "\n";
                return 1;
            }
            std::cerr << "report -> " << report_file << "\n";
        }
    }
    return 0;
}
