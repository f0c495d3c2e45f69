/**
 * @file
 * Shared helpers for the figure-reproduction bench binaries.
 *
 * Every binary accepts:
 *   --scale=<f>   workload scale factor (default 0.25 for speed;
 *                 larger values approach the paper's footprints)
 *   --seed=<n>    workload seed
 *   --bench=<name> run a single benchmark instead of all nine
 *   --jobs=<n>    sweep worker threads (default: GPUMMU_JOBS env,
 *                 else all hardware threads; results are identical
 *                 at any job count)
 *   --trace=<file>         after the sweep, re-run one point with
 *                          event tracing armed and write Chrome
 *                          trace-event JSON (open in Perfetto or
 *                          chrome://tracing)
 *   --trace-filter=<pfx>   restrict the trace to categories whose
 *                          name starts with <pfx> (tlb, ptw,
 *                          coalescer, l1, l2, l2tlb, dram, core)
 *   --sample-interval=<n>  telemetry sampling interval in cycles for
 *                          the re-run point (enables telemetry)
 *   --sample-out=<file>    write the interval series to <file>; the
 *                          extension picks the format (.csv or .json)
 *   --report=<file>        write a self-contained HTML run report
 *   --capture-trace=<file> after the sweep, re-run one point with
 *                          memory-trace capture armed and write a
 *                          replayable memtrace (see
 *                          bench/trace_replay)
 *   --spans=<file>         after the sweep, re-run one point with
 *                          translation-lifecycle span tracking armed
 *                          and export the per-stage latency
 *                          decomposition; the extension picks the
 *                          format (.csv or .json). Combined with
 *                          --trace, one run serves both so the
 *                          Chrome trace carries span flow arrows;
 *                          combined with --report, the HTML report
 *                          gains a translation-latency-anatomy
 *                          section.
 *
 * Telemetry, tracing, trace capture and span tracking are
 * observation-only re-runs of one point after the sweep; arming them
 * never changes any table number.
 *
 * All numeric flags parse strictly (sim/parse_util.hh): the whole
 * value must be a number — "--jobs=4abc" is an error, not 4.
 */

#ifndef BENCH_BENCH_UTIL_HH
#define BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdlib>
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

namespace gpummu {
namespace benchutil {

struct Options
{
    WorkloadParams params;
    std::vector<BenchmarkId> benchmarks;
    /** Sweep worker threads; 0 resolves via GPUMMU_JOBS. */
    unsigned jobs = 0;
    /** Chrome trace output path; empty disables tracing. */
    std::string traceFile;
    /** Category-name prefix filter for the traced run. */
    std::string traceFilter;
    /** Telemetry sampling interval in cycles; 0 disables telemetry. */
    Cycle sampleInterval = 0;
    /** Interval-series output path (.csv or .json). */
    std::string sampleOut;
    /** HTML run-report output path. */
    std::string reportFile;
    /** Memtrace capture output path; empty disables capture. */
    std::string captureTrace;
    /** Span export path (.csv or .json); empty disables spans. */
    std::string spansFile;
};

/**
 * Parse the shared bench CLI into @p opt. Returns false with a
 * one-line message in @p err on any malformed flag — numeric values
 * parse strictly (full token, no locale, overflow rejected), so
 * "--jobs=4abc" and "--seed=-1" are errors rather than garbage.
 * Exposed separately from parse() so tests can pin the rejects
 * without spawning processes.
 */
inline bool
tryParse(int argc, char **argv, Options &opt, std::string &err,
         double default_scale = 0.25)
{
    opt = Options{};
    opt.params.scale = default_scale;
    opt.params.seed = 42;
    opt.benchmarks = allBenchmarks();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *key) -> const char * {
            const std::string k = std::string(key) + "=";
            return arg.rfind(k, 0) == 0 ? arg.c_str() + k.size()
                                        : nullptr;
        };
        if (const char *v = value("--scale")) {
            if (!parseScale(v, opt.params.scale)) {
                err = "--scale wants a positive number, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--jobs")) {
            if (!parseNum(v, opt.jobs) || opt.jobs == 0) {
                err = "--jobs wants a positive int, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--seed")) {
            if (!parseNum(v, opt.params.seed)) {
                err = "--seed wants a non-negative int, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--trace")) {
            opt.traceFile = v;
            if (opt.traceFile.empty()) {
                err = "--trace wants an output path";
                return false;
            }
        } else if (const char *v = value("--trace-filter")) {
            opt.traceFilter = v;
            if (!traceFilterMatchesAny(opt.traceFilter)) {
                err = "--trace-filter=" + std::string(v) +
                      " matches no category; valid: " +
                      traceCatNames();
                return false;
            }
        } else if (const char *v = value("--sample-interval")) {
            if (!parseNum(v, opt.sampleInterval) ||
                opt.sampleInterval == 0) {
                err = "--sample-interval wants a positive cycle "
                      "count, got '" +
                      std::string(v) + "'";
                return false;
            }
        } else if (const char *v = value("--sample-out")) {
            opt.sampleOut = v;
            const std::string &p = opt.sampleOut;
            auto ends = [&p](const char *suf) {
                const std::string s = suf;
                return p.size() >= s.size() &&
                       p.compare(p.size() - s.size(), s.size(), s) ==
                           0;
            };
            if (p.empty() || (!ends(".csv") && !ends(".json"))) {
                err = "--sample-out wants a .csv or .json path";
                return false;
            }
        } else if (const char *v = value("--report")) {
            opt.reportFile = v;
            if (opt.reportFile.empty()) {
                err = "--report wants an output path";
                return false;
            }
        } else if (const char *v = value("--capture-trace")) {
            opt.captureTrace = v;
            if (opt.captureTrace.empty()) {
                err = "--capture-trace wants an output path";
                return false;
            }
        } else if (const char *v = value("--spans")) {
            opt.spansFile = v;
            const std::string &p = opt.spansFile;
            auto ends = [&p](const char *suf) {
                const std::string s = suf;
                return p.size() >= s.size() &&
                       p.compare(p.size() - s.size(), s.size(), s) ==
                           0;
            };
            if (p.empty() || (!ends(".csv") && !ends(".json"))) {
                err = "--spans wants a .csv or .json path";
                return false;
            }
        } else if (const char *v = value("--bench")) {
            const auto id = benchmarkByName(v);
            if (!id) {
                err = "unknown benchmark '" + std::string(v) +
                      "'; one of: " + benchmarkNames();
                return false;
            }
            opt.benchmarks = {*id};
        } else {
            err = "unknown option: " + arg;
            return false;
        }
    }
    if (opt.sampleInterval == 0 &&
        (!opt.sampleOut.empty() || !opt.reportFile.empty())) {
        err = "--sample-out/--report need "
              "--sample-interval=<cycles>";
        return false;
    }
    if (opt.sampleInterval != 0 && opt.sampleOut.empty() &&
        opt.reportFile.empty()) {
        err = "--sample-interval needs --sample-out=<file> and/or "
              "--report=<file>";
        return false;
    }
    return true;
}

inline Options
parse(int argc, char **argv, double default_scale = 0.25)
{
    Options opt;
    std::string err;
    if (!tryParse(argc, argv, opt, err, default_scale)) {
        std::cerr << err << "\n";
        std::exit(1);
    }
    return opt;
}

/**
 * Simulate the (benchmark x config) cross product on @p jobs worker
 * threads, filling @p exp's memo cache so the serial table-printing
 * code below each figure gets every value as a cache hit. Shared
 * baselines are simulated once across the whole grid.
 */
inline void
prewarm(Experiment &exp, const std::vector<BenchmarkId> &benchmarks,
        const std::vector<SystemConfig> &configs, unsigned jobs)
{
    std::vector<SweepPoint> grid;
    grid.reserve(benchmarks.size() * configs.size());
    for (BenchmarkId id : benchmarks) {
        for (const SystemConfig &cfg : configs)
            grid.push_back(SweepPoint{id, cfg});
    }
    SweepRunner(exp, jobs).run(grid);
}

/**
 * Honor --trace=<file>: re-simulate one (benchmark, config) point
 * with a TraceSink armed and export Chrome trace-event JSON. A sink
 * belongs to exactly one run, so this is a separate simulation after
 * the sweep - the table numbers above are untouched (armed and
 * unarmed runs are bit-identical anyway). Uses the first selected
 * benchmark; narrow with --bench=<name> to trace a specific one.
 */
inline void
maybeTraceRun(const Options &opt, const SystemConfig &cfg)
{
    if (opt.traceFile.empty())
        return;
    TraceSink sink;
    if (!opt.traceFilter.empty())
        sink.setFilter(opt.traceFilter);
    const BenchmarkId bench = opt.benchmarks.front();
    runConfigFull(bench, cfg, opt.params, {.trace = &sink});
    if (!sink.writeChromeTraceFile(opt.traceFile)) {
        std::cerr << "failed to write trace: " << opt.traceFile
                  << "\n";
        std::exit(1);
    }
    std::cerr << "trace: " << sink.size() << " events ("
              << sink.dropped() << " dropped) -> " << opt.traceFile
              << " [" << benchmarkName(bench) << " / " << cfg.name
              << "]\n";
}

/**
 * Honor --sample-interval / --sample-out / --report: re-simulate one
 * (benchmark, config) point with telemetry armed and export the
 * interval series (CSV or JSON by extension) and/or the HTML run
 * report. Telemetry belongs to exactly one run, so like tracing this
 * is a separate simulation after the sweep; armed and unarmed runs
 * are bit-identical, so the table numbers above are untouched.
 */
inline void
maybeTelemetryRun(const Options &opt, const SystemConfig &cfg)
{
    if (opt.sampleInterval == 0)
        return;
    TelemetryConfig tcfg;
    tcfg.sampleInterval = opt.sampleInterval;
    Telemetry telemetry(tcfg);
    // When spans are requested alongside a report, arm them on the
    // telemetry run too so the HTML report gains the translation-
    // latency-anatomy section (spans register no stats, so the run
    // is bit-identical either way).
    SpanTracker spans;
    SpanTracker *span_arm =
        (!opt.spansFile.empty() && !opt.reportFile.empty()) ? &spans
                                                            : nullptr;
    const BenchmarkId bench = opt.benchmarks.front();
    runConfigFull(bench, cfg, opt.params,
                  {.telemetry = &telemetry, .spans = span_arm});
    if (!opt.sampleOut.empty()) {
        const bool csv =
            opt.sampleOut.size() >= 4 &&
            opt.sampleOut.compare(opt.sampleOut.size() - 4, 4,
                                  ".csv") == 0;
        const bool ok = csv
                            ? telemetry.writeCsvFile(opt.sampleOut)
                            : telemetry.writeJsonFile(opt.sampleOut);
        if (!ok) {
            std::cerr << "failed to write samples: " << opt.sampleOut
                      << "\n";
            std::exit(1);
        }
        std::cerr << "telemetry: "
                  << telemetry.sampler().intervals().size()
                  << " intervals -> " << opt.sampleOut << " ["
                  << benchmarkName(bench) << " / " << cfg.name
                  << "]\n";
    }
    if (!opt.reportFile.empty()) {
        if (!writeHtmlReportFile(opt.reportFile, telemetry,
                                 span_arm)) {
            std::cerr << "report has an empty hot-page table (no "
                         "walks attributed): "
                      << opt.reportFile << "\n";
            std::exit(1);
        }
        std::cerr << "report: " << telemetry.heat().pages().size()
                  << " pages, " << telemetry.heat().lines().size()
                  << " page-table lines -> " << opt.reportFile
                  << "\n";
    }
}

/**
 * Honor --capture-trace=<file>: re-simulate one (benchmark, config)
 * point with memory-trace capture armed and write a replayable
 * memtrace. Like tracing/telemetry this is a separate observation-
 * only simulation after the sweep (capture registers no stats, so
 * the armed run is bit-identical to an unarmed one). Uses the first
 * selected benchmark; narrow with --bench=<name>. Replay the file
 * with bench/trace_replay.
 */
inline void
maybeCaptureRun(const Options &opt, const SystemConfig &cfg)
{
    if (opt.captureTrace.empty())
        return;
    MemTraceWriter writer(opt.captureTrace);
    const BenchmarkId bench = opt.benchmarks.front();
    runConfigFull(bench, cfg, opt.params, {.memtrace = &writer});
    std::cerr << "memtrace: " << writer.accessesRecorded()
              << " accesses, " << writer.branchesRecorded()
              << " branches -> " << opt.captureTrace << " ["
              << benchmarkName(bench) << " / " << cfg.name << "]\n";
}

/**
 * Honor --spans=<file>: re-simulate one (benchmark, config) point
 * with translation-lifecycle span tracking armed and export the
 * per-stage latency decomposition (CSV or JSON by extension), plus a
 * summary to stderr. When --trace was also given, this single run
 * serves both exports so the Chrome trace carries the span flow
 * arrows (with --trace alone the output is byte-identical to a
 * span-less traced run, since spans emit nothing without a sink).
 * An empty span table is fatal: the run observed no translation
 * requests, so the hooks are not armed or the workload never issued
 * a memory access.
 */
inline void
maybeSpanRun(const Options &opt, const SystemConfig &cfg)
{
    if (opt.spansFile.empty())
        return;
    SpanTracker spans;
    TraceSink sink;
    TraceSink *trace = nullptr;
    if (!opt.traceFile.empty()) {
        if (!opt.traceFilter.empty())
            sink.setFilter(opt.traceFilter);
        trace = &sink;
    }
    const BenchmarkId bench = opt.benchmarks.front();
    runConfigFull(bench, cfg, opt.params,
                  {.trace = trace, .spans = &spans});
    if (trace != nullptr) {
        if (!sink.writeChromeTraceFile(opt.traceFile)) {
            std::cerr << "failed to write trace: " << opt.traceFile
                      << "\n";
            std::exit(1);
        }
        std::cerr << "trace: " << sink.size() << " events ("
                  << sink.dropped() << " dropped) -> "
                  << opt.traceFile << " [" << benchmarkName(bench)
                  << " / " << cfg.name << "]\n";
    }
    if (spans.empty()) {
        std::cerr << "span table is empty: no translation requests "
                     "were observed ["
                  << benchmarkName(bench) << " / " << cfg.name
                  << "]\n";
        std::exit(1);
    }
    const bool csv =
        opt.spansFile.size() >= 4 &&
        opt.spansFile.compare(opt.spansFile.size() - 4, 4, ".csv") ==
            0;
    const bool ok = csv ? spans.writeCsvFile(opt.spansFile)
                        : spans.writeJsonFile(opt.spansFile);
    if (!ok) {
        std::cerr << "failed to write spans: " << opt.spansFile
                  << "\n";
        std::exit(1);
    }
    spans.writeSummary(std::cerr);
    std::cerr << "spans: " << spans.spansClosed() << " closed ("
              << spans.spansOpen() << " open at end) -> "
              << opt.spansFile << " [" << benchmarkName(bench)
              << " / " << cfg.name << "]\n";
}

/** Run every requested post-sweep observation of @p cfg (trace,
 *  telemetry, memtrace capture, spans); each is its own armed
 *  re-simulation, except that --spans + --trace share one run so
 *  the trace carries span flow arrows. */
inline void
maybeObserveRun(const Options &opt, const SystemConfig &cfg)
{
    if (opt.spansFile.empty())
        maybeTraceRun(opt, cfg);
    maybeSpanRun(opt, cfg);
    maybeTelemetryRun(opt, cfg);
    maybeCaptureRun(opt, cfg);
}

/** Geometric mean helper for "average speedup" rows. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace benchutil
} // namespace gpummu

#endif // BENCH_BENCH_UTIL_HH
