/**
 * @file
 * MMU feature sweep: walks the paper's design-point ladder for one
 * benchmark, from the no-TLB baseline through every augmentation
 * step (ports, hit-under-miss, cache overlap, PTW scheduling,
 * multiple walkers, ideal). Useful for seeing where each feature's
 * win comes from.
 *
 * The ladder runs through SweepRunner, so the points simulate in
 * parallel; results are deterministic and identical at any job
 * count.
 *
 * Usage: mmu_sweep [benchmark] [scale] [jobs]
 *                  [--trace=<file>] [--trace-filter=<prefix>]
 *                  [--sample-interval=<cycles>] [--sample-out=<file>]
 *                  [--report=<file>] [--capture-trace=<file>]
 *                  [--spans=<file>]
 *        (jobs defaults to GPUMMU_JOBS, else all hardware threads)
 *
 * With --trace=<file>, one extra run of the augmented design point is
 * simulated after the sweep with event tracing armed, and the result
 * is written as Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing). --trace-filter restricts recording to categories
 * whose name starts with the prefix (tlb, ptw, coalescer, l1, l2,
 * dram, core).
 *
 * With --sample-interval=<n>, the augmented design point is re-run
 * with telemetry armed: --sample-out writes the per-interval counter
 * series (.csv or .json by extension) and --report writes a
 * self-contained HTML run report with interval charts, the stall
 * breakdown and the hot-page / hot-PTE-line tables. Both observation
 * layers never change simulated results.
 *
 * With --capture-trace=<file>, the augmented design point is re-run
 * with memory-trace capture armed and the result is written as a
 * replayable memtrace (drive it back through the MMU stack with
 * bench/trace_replay).
 *
 * With --spans=<file>, the augmented design point is re-run with
 * translation-lifecycle span tracking armed: every translation
 * request gets a cycle-stamped timeline through TLB lookup, L2/MSHR,
 * walker queueing and service, and fill. The per-stage latency
 * decomposition is exported as .csv or .json (by extension) and a
 * summary is printed. Combined with --trace, the one armed run
 * serves both so the Chrome trace carries span flow arrows; combined
 * with --report, the HTML report gains a translation-latency-anatomy
 * section.
 */

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "sim/parse_util.hh"
#include "telemetry/report.hh"
#include "telemetry/span.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"
#include "trace/trace.hh"

using namespace gpummu;

namespace {

constexpr const char *kUsage =
    "usage: mmu_sweep [benchmark] [scale] [jobs] [--trace=<file>] "
    "[--trace-filter=<prefix>] [--sample-interval=<cycles>] "
    "[--sample-out=<file>] [--report=<file>] "
    "[--capture-trace=<file>] [--spans=<file>]\n";

} // namespace

int
main(int argc, char **argv)
{
    // Flags can appear anywhere; positionals keep their order.
    std::string trace_file, trace_filter, sample_out, report_file;
    std::string capture_file, spans_file;
    Cycle sample_interval = 0;
    std::vector<std::string> pos;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace=", 0) == 0) {
            trace_file = arg.substr(8);
        } else if (arg.rfind("--trace-filter=", 0) == 0) {
            trace_filter = arg.substr(15);
            if (!traceFilterMatchesAny(trace_filter)) {
                std::cerr << "--trace-filter=" << trace_filter
                          << " matches no category; valid: "
                          << traceCatNames() << "\n";
                return 2;
            }
        } else if (arg.rfind("--sample-interval=", 0) == 0) {
            // Strict full-token parse: trailing garbage is an
            // error, not a truncated number.
            if (!parseNum(arg.substr(18), sample_interval) ||
                sample_interval == 0) {
                std::cerr << "--sample-interval wants a positive "
                             "cycle count\n";
                return 2;
            }
        } else if (arg.rfind("--capture-trace=", 0) == 0) {
            capture_file = arg.substr(16);
            if (capture_file.empty()) {
                std::cerr
                    << "--capture-trace wants an output path\n";
                return 2;
            }
        } else if (arg.rfind("--sample-out=", 0) == 0) {
            sample_out = arg.substr(13);
            const auto dot = sample_out.rfind('.');
            const std::string ext =
                dot == std::string::npos ? "" : sample_out.substr(dot);
            if (ext != ".csv" && ext != ".json") {
                std::cerr
                    << "--sample-out wants a .csv or .json path\n";
                return 2;
            }
        } else if (arg.rfind("--report=", 0) == 0) {
            report_file = arg.substr(9);
            if (report_file.empty()) {
                std::cerr << "--report wants an output path\n";
                return 2;
            }
        } else if (arg.rfind("--spans=", 0) == 0) {
            spans_file = arg.substr(8);
            const auto dot = spans_file.rfind('.');
            const std::string ext =
                dot == std::string::npos ? "" : spans_file.substr(dot);
            if (ext != ".csv" && ext != ".json") {
                std::cerr << "--spans wants a .csv or .json path\n";
                return 2;
            }
        } else if (arg.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << arg << "\n" << kUsage;
            return 2;
        } else {
            pos.push_back(arg);
        }
    }
    if (pos.size() > 3) {
        std::cerr << "unexpected argument: " << pos[3] << "\n" << kUsage;
        return 2;
    }
    if (sample_interval == 0 &&
        (!sample_out.empty() || !report_file.empty())) {
        std::cerr << "--sample-out/--report need "
                     "--sample-interval=<cycles>\n";
        return 2;
    }
    if (sample_interval != 0 && sample_out.empty() &&
        report_file.empty()) {
        std::cerr << "--sample-interval needs --sample-out=<file> "
                     "and/or --report=<file>\n";
        return 2;
    }

    std::string name = pos.size() > 0 ? pos[0] : "bfs";
    WorkloadParams params;
    params.scale = 0.25;
    params.seed = 42;
    if (pos.size() > 1 && !parseScale(pos[1], params.scale)) {
        std::cerr << "bad scale '" << pos[1]
                  << "': wants a positive number\n";
        return 2;
    }
    unsigned jobs = 0;
    if (pos.size() > 2 && !parseNum(pos[2], jobs)) {
        std::cerr << "bad jobs '" << pos[2]
                  << "': wants a non-negative int\n";
        return 2;
    }

    const auto found = benchmarkByName(name);
    if (!found) {
        std::cerr << "unknown benchmark '" << name
                  << "'; one of: " << benchmarkNames() << "\n";
        return 1;
    }
    const BenchmarkId bench = *found;

    Experiment exp(params);
    const SystemConfig base = presets::noTlb();

    std::vector<SystemConfig> ladder = {
        presets::naiveTlb(3),
        presets::naiveTlb(4),
        presets::tlbHitUnderMiss(),
        presets::tlbCacheOverlap(),
        presets::augmentedTlb(),
        presets::naiveTlbMultiPtw(8),
        presets::idealTlb(),
    };

    // Fan the whole ladder (baseline first) out over worker threads.
    std::vector<SweepPoint> grid;
    grid.push_back(SweepPoint{bench, base});
    for (const auto &cfg : ladder)
        grid.push_back(SweepPoint{bench, cfg});
    SweepRunner runner(exp, jobs);
    const auto results = runner.run(grid);

    std::cout << "ran " << grid.size() << " design points on "
              << runner.jobs() << " worker threads\n\n";

    ReportTable table({"config", "cycles", "tlb-miss%", "walk-lat",
                       "refs-elim", "speedup"});
    const RunStats b = results.front().stats;
    table.addRow({base.name, std::to_string(b.cycles), "-", "-", "-",
                  "1.000"});
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        const RunStats s = results[i + 1].stats;
        table.addRow(
            {ladder[i].name, std::to_string(s.cycles),
             ReportTable::pct(s.tlbMissRate()),
             ReportTable::num(s.avgTlbMissLatency, 0),
             std::to_string(s.walkRefsEliminated),
             ReportTable::num(static_cast<double>(b.cycles) /
                                  static_cast<double>(s.cycles),
                              3)});
    }
    table.print(std::cout);

    // A TraceSink belongs to exactly one run, so the traced point is
    // a separate simulation after the sweep (timing is bit-identical
    // either way; tracing is observation-only). With --spans the one
    // armed run serves both exports, so the Chrome trace carries the
    // translation span flow arrows.
    if (!trace_file.empty() || !spans_file.empty()) {
        TraceSink sink;
        if (!trace_filter.empty())
            sink.setFilter(trace_filter);
        SpanTracker spans;
        const SystemConfig traced = presets::augmentedTlb();
        runConfigFull(
            bench, traced, params,
            {.trace = trace_file.empty() ? nullptr : &sink,
             .spans = spans_file.empty() ? nullptr : &spans});
        if (!trace_file.empty()) {
            if (!sink.writeChromeTraceFile(trace_file)) {
                std::cerr << "failed to write trace: " << trace_file
                          << "\n";
                return 1;
            }
            std::cout << "\ntrace: " << sink.size() << " events ("
                      << sink.dropped() << " dropped) -> "
                      << trace_file << " [" << name << " / "
                      << traced.name << "]\n";
        }
        if (!spans_file.empty()) {
            if (spans.empty()) {
                std::cerr << "span table is empty: no translation "
                             "requests were observed ["
                          << name << " / " << traced.name << "]\n";
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
            std::cout << "\n";
            spans.writeSummary(std::cout);
            std::cout << "spans: " << spans.spansClosed()
                      << " closed (" << spans.spansOpen()
                      << " open at end) -> " << spans_file << " ["
                      << name << " / " << traced.name << "]\n";
        }
    }

    // Telemetry likewise belongs to one run: sample the augmented
    // design point in a separate armed simulation. Spans ride along
    // when requested so the HTML report gains the translation-
    // latency-anatomy section.
    if (sample_interval != 0) {
        TelemetryConfig tcfg;
        tcfg.sampleInterval = sample_interval;
        Telemetry telemetry(tcfg);
        SpanTracker spans;
        SpanTracker *span_arm =
            (!spans_file.empty() && !report_file.empty()) ? &spans
                                                          : nullptr;
        const SystemConfig sampled = presets::augmentedTlb();
        runConfigFull(bench, sampled, params,
                      {.telemetry = &telemetry, .spans = span_arm});
        if (!sample_out.empty()) {
            const bool csv =
                sample_out.size() >= 4 &&
                sample_out.compare(sample_out.size() - 4, 4,
                                   ".csv") == 0;
            const bool ok =
                csv ? telemetry.writeCsvFile(sample_out)
                    : telemetry.writeJsonFile(sample_out);
            if (!ok) {
                std::cerr << "failed to write samples: "
                          << sample_out << "\n";
                return 1;
            }
            std::cout << "telemetry: "
                      << telemetry.sampler().intervals().size()
                      << " intervals -> " << sample_out << " ["
                      << name << " / " << sampled.name << "]\n";
        }
        if (!report_file.empty()) {
            if (!writeHtmlReportFile(report_file, telemetry,
                                     span_arm)) {
                std::cerr << "report has an empty hot-page table "
                             "(no walks attributed): "
                          << report_file << "\n";
                return 1;
            }
            std::cout << "report: "
                      << telemetry.heat().pages().size()
                      << " pages, "
                      << telemetry.heat().lines().size()
                      << " page-table lines -> " << report_file
                      << "\n";
        }
    }

    // Memtrace capture is observation-only like the two layers
    // above: a separate armed re-run of the augmented point. Capture
    // registers no stats, so the armed run is bit-identical to the
    // swept one.
    if (!capture_file.empty()) {
        MemTraceWriter writer(capture_file);
        const SystemConfig captured = presets::augmentedTlb();
        runConfigFull(bench, captured, params, {.memtrace = &writer});
        std::cout << "memtrace: " << writer.accessesRecorded()
                  << " accesses, " << writer.branchesRecorded()
                  << " branches -> " << capture_file << " [" << name
                  << " / " << captured.name << "]\n";
    }
    return 0;
}
