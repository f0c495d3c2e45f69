#include "core/experiment.hh"

#include <iomanip>
#include <sstream>

#include "core/shared_translation.hh"
#include "sim/logging.hh"
#include "telemetry/telemetry.hh"
#include "trace/memtrace.hh"

namespace gpummu {

namespace {

/** Arm trace capture on a built GpuTop; fatal when unsupported so a
 *  --capture-trace user never gets a silently empty file. */
void
armMemTrace(GpuTop &gpu, MemTraceWriter *memtrace,
            const SystemConfig &cfg)
{
    if (memtrace == nullptr)
        return;
    memtrace->setConfigName(cfg.name);
    if (!gpu.setMemTrace(memtrace)) {
        if (!memtrace->ok()) {
            GPUMMU_FATAL("memory-trace capture failed: ",
                         memtrace->error());
        }
        GPUMMU_FATAL("memory-trace capture is not supported on "
                     "this core topology (config '",
                     cfg.name,
                     "'): TBC compacts warps, so recorded warp ids "
                     "would not replay");
    }
}

} // namespace

RunOutput
runWorkloadFull(Workload &workload, const SystemConfig &cfg,
                const RunObservers &obs)
{
    SharedTranslation unit(cfg);
    GpuTop gpu(cfg.numCores, cfg.mem, workload, unit.coreFactory(),
               cfg.largePages, cfg.physFrames);
    unit.regStats(gpu.stats());

    if (obs.trace != nullptr)
        gpu.setTraceSink(obs.trace);
    if (obs.spans != nullptr)
        gpu.setSpanTracker(obs.spans);
    unit.arm(obs, gpu.stats());
    if (obs.telemetry != nullptr) {
        obs.telemetry->setMeta(workload.name(), cfg.name);
        gpu.setTelemetry(obs.telemetry);
    }
    armMemTrace(gpu, obs.memtrace, cfg);

    RunOutput out;
    out.stats = gpu.run(cfg.maxCycles);
    if (obs.memtrace != nullptr &&
        !obs.memtrace->finish(out.stats.cycles)) {
        GPUMMU_FATAL("memory-trace capture failed: ",
                     obs.memtrace->error());
    }
    unit.checkEndOfKernel();

    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(workload.name())
       << "\",\"config\":\"" << jsonEscape(cfg.name)
       << "\",\"summary\":";
    dumpRunStatsJson(os, out.stats);
    os << ",\"stats\":";
    gpu.stats().dumpJson(os);
    os << "}";
    out.statsJson = os.str();
    return out;
}

RunOutput
runConfigFull(BenchmarkId bench, const SystemConfig &cfg,
              const WorkloadParams &params, const RunObservers &obs)
{
    auto workload = makeWorkload(bench, params);
    return runWorkloadFull(*workload, cfg, obs);
}

RunStats
runConfig(BenchmarkId bench, const SystemConfig &cfg,
          const WorkloadParams &params)
{
    return runConfigFull(bench, cfg, params).stats;
}

const RunOutput &
Experiment::runFull(BenchmarkId bench, const SystemConfig &cfg)
{
    // cfg.name alone does not encode every field callers vary (tests
    // shrink numCores without renaming, or arm the checker), so widen
    // the key a little.
    const std::string key = benchmarkName(bench) + "/" + cfg.name +
                            "/c" + std::to_string(cfg.numCores) +
                            (cfg.checkInvariants ? "/chk" : "");

    // Either adopt an existing latch for the key or install our own;
    // only the installing thread simulates, everyone else blocks on
    // the shared_future.
    std::promise<RunOutput> promise;
    std::shared_future<RunOutput> latch;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            latch = promise.get_future().share();
            cache_.emplace(key, latch);
            misses_++;
            owner = true;
        } else {
            latch = it->second;
        }
    }
    if (owner) {
        try {
            promise.set_value(runConfigFull(bench, cfg, params_));
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return latch.get();
}

RunStats
Experiment::run(BenchmarkId bench, const SystemConfig &cfg)
{
    return runFull(bench, cfg).stats;
}

std::size_t
Experiment::missCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

double
Experiment::speedup(BenchmarkId bench, const SystemConfig &cfg,
                    const SystemConfig &baseline)
{
    const RunStats base = run(bench, baseline);
    const RunStats var = run(bench, cfg);
    GPUMMU_ASSERT(var.cycles > 0);
    return static_cast<double>(base.cycles) /
           static_cast<double>(var.cycles);
}

ReportTable::ReportTable(std::vector<std::string> columns)
    : columns_(std::move(columns))
{
}

void
ReportTable::addRow(std::vector<std::string> cells)
{
    GPUMMU_ASSERT(cells.size() == columns_.size(),
                  "row width mismatch");
    rows_.push_back(std::move(cells));
}

void
ReportTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c)
        widths[c] = columns_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << cells[c];
            os << (c + 1 < cells.size() ? "  " : "");
        }
        os << "\n";
    };
    line(columns_);
    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 2;
    os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
    for (const auto &row : rows_)
        line(row);
}

std::string
ReportTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
ReportTable::pct(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v * 100.0
       << "%";
    return os.str();
}

} // namespace gpummu
