/**
 * @file
 * Telemetry regression tests.
 *
 * The telemetry layer (interval sampler, heat profiler, run report)
 * is observation-only; these tests pin the contract from both sides:
 * arming it never changes simulated results (bit-identical stat
 * dumps on every workload, byte-stable exports at any sweep job
 * count), and what it records is complete (heat attribution conserves
 * against the walkers' own counters, the divergence series conserves
 * against the memory stages').
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "core/presets.hh"
#include "core/sweep.hh"
#include "telemetry/report.hh"
#include "telemetry/telemetry.hh"

using namespace gpummu;

namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.03;
    p.seed = 42;
    return p;
}

SystemConfig
paperDefault()
{
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 4;
    return cfg;
}

TelemetryConfig
tinyTelemetryConfig()
{
    TelemetryConfig t;
    t.sampleInterval = 2000; // several intervals even on tiny runs
    return t;
}

/** Sum every counter in a statsJson dump whose name ends with
 *  @p suffix (e.g. ".ptw.walks" across cores). */
std::uint64_t
sumCountersEndingWith(const std::string &json,
                      const std::string &suffix)
{
    const std::string needle = suffix + "\":";
    std::uint64_t sum = 0;
    for (std::string::size_type pos = json.find(needle);
         pos != std::string::npos;
         pos = json.find(needle, pos + needle.size())) {
        sum += std::strtoull(json.c_str() + pos + needle.size(),
                             nullptr, 10);
    }
    return sum;
}

} // namespace

TEST(Telemetry, ArmedRunIsBitIdenticalOnEveryWorkload)
{
    // The acceptance bar for the whole subsystem: a telemetry-armed
    // run must be indistinguishable from an unarmed one in every
    // simulated stat, on every registry workload.
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        const RunOutput plain = runConfigFull(id, cfg, tinyParams());
        Telemetry telemetry(tinyTelemetryConfig());
        const RunOutput armed =
            runConfigFull(id, cfg, tinyParams(), {.telemetry = &telemetry});
        EXPECT_TRUE(plain.stats == armed.stats) << benchmarkName(id);
        EXPECT_EQ(plain.statsJson, armed.statsJson)
            << benchmarkName(id);
        // ...while actually recording something.
        EXPECT_TRUE(telemetry.finished()) << benchmarkName(id);
        EXPECT_GT(telemetry.sampler().intervals().size(), 1u)
            << benchmarkName(id);
        EXPECT_FALSE(telemetry.heat().pages().empty())
            << benchmarkName(id);
    }
}

TEST(Telemetry, IntervalCoverageIsGaplessAndCumulative)
{
    Telemetry telemetry(tinyTelemetryConfig());
    const RunOutput out = runConfigFull(BenchmarkId::Bfs, paperDefault(),
                                        tinyParams(),
                                        {.telemetry = &telemetry});

    const auto &ivs = telemetry.sampler().intervals();
    ASSERT_FALSE(ivs.empty());
    Cycle expect_start = 0;
    for (const auto &iv : ivs) {
        EXPECT_EQ(iv.start, expect_start);
        EXPECT_GT(iv.end, iv.start);
        expect_start = iv.end;
    }
    EXPECT_EQ(ivs.back().end, out.stats.cycles);
    EXPECT_EQ(ivs.back().end, telemetry.runCycles());

    // Cumulative rows are monotone per column, and the divergence
    // series closed one interval per sampler interval.
    for (std::size_t c = 0; c < telemetry.sampler().names().size();
         ++c) {
        std::uint64_t prev = 0;
        for (const auto &iv : ivs) {
            EXPECT_GE(iv.cum[c], prev);
            prev = iv.cum[c];
        }
    }
    EXPECT_EQ(telemetry.heat().divergenceSeries().size(), ivs.size());
}

TEST(Telemetry, HeatAttributionConservesAgainstWalkerCounters)
{
    // Every walk and every page-table reference the walkers count
    // must land in exactly one heat-table row: per-VPN walk counts
    // sum to the walkers' walks, per-line reference counts sum to
    // refs_issued, and the divergence series sums to the memory
    // stages' instruction count.
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        Telemetry telemetry(tinyTelemetryConfig());
        const RunOutput out =
            runConfigFull(id, cfg, tinyParams(), {.telemetry = &telemetry});
        const HeatProfiler &heat = telemetry.heat();

        std::uint64_t page_walks = 0;
        for (const auto &[vpn, p] : heat.pages()) {
            page_walks += p.walks;
            EXPECT_GE(p.sharers(), 1u);
        }
        std::uint64_t line_refs = 0, where_refs = 0;
        for (const auto &[line, l] : heat.lines()) {
            line_refs += l.refs;
            where_refs += l.pwcHits + l.l2Refs + l.dramRefs;
        }

        EXPECT_EQ(page_walks, heat.totalWalks()) << benchmarkName(id);
        EXPECT_EQ(page_walks,
                  sumCountersEndingWith(out.statsJson, ".ptw.walks"))
            << benchmarkName(id);
        EXPECT_EQ(line_refs, heat.totalRefs()) << benchmarkName(id);
        EXPECT_EQ(line_refs, where_refs) << benchmarkName(id);
        EXPECT_EQ(line_refs, out.stats.walkRefsIssued)
            << benchmarkName(id);

        std::uint64_t div_n = 0;
        for (const auto &d : heat.divergenceSeries())
            div_n += d.count;
        EXPECT_EQ(div_n, heat.totalDivergenceSamples())
            << benchmarkName(id);
        EXPECT_EQ(div_n, out.stats.memInstructions)
            << benchmarkName(id);
    }
}

TEST(Telemetry, HeatCoversIommuAndTbcPaths)
{
    // The IOMMU's shared walkers and the TBC core's memory stage are
    // armed through different paths than the SIMT default; both must
    // still conserve.
    auto io = presets::iommu();
    io.numCores = 4;
    Telemetry io_t(tinyTelemetryConfig());
    const RunOutput io_out = runConfigFull(BenchmarkId::Bfs, io, tinyParams(),
                                           {.telemetry = &io_t});
    // RunStats only aggregates the (disabled) per-core walkers in
    // IOMMU mode; conserve against the IOMMU's own counter instead.
    EXPECT_EQ(io_t.heat().totalRefs(),
              sumCountersEndingWith(io_out.statsJson,
                                    ".ptw.refs_issued"));
    EXPECT_FALSE(io_t.heat().pages().empty());
    EXPECT_EQ(io_t.heat().totalDivergenceSamples(),
              io_out.stats.memInstructions);

    auto tbc = presets::tbc(paperDefault());
    Telemetry tbc_t(tinyTelemetryConfig());
    const RunOutput tbc_out = runConfigFull(BenchmarkId::Bfs, tbc,
                                            tinyParams(),
                                            {.telemetry = &tbc_t});
    EXPECT_EQ(tbc_t.heat().totalRefs(), tbc_out.stats.walkRefsIssued);
    EXPECT_EQ(tbc_t.heat().totalDivergenceSamples(),
              tbc_out.stats.memInstructions);
}

TEST(Telemetry, ExportsAreByteStableAcrossSweepJobCounts)
{
    // Pipeline parity: sweep the grid on 1 worker, sample a point;
    // sweep on 4 workers, sample the same point - the interval CSV
    // and JSON must match byte for byte (single-CPU containers can't
    // see a true interleaving difference, but the contract is that
    // nothing about the sweep leaks into a later armed run at all).
    const auto cfg = paperDefault();
    const std::vector<BenchmarkId> grid_benches = {BenchmarkId::Bfs,
                                                   BenchmarkId::Kmeans};
    auto pipeline = [&](unsigned jobs) {
        Experiment exp(tinyParams());
        std::vector<SweepPoint> grid;
        for (BenchmarkId id : grid_benches)
            grid.push_back(SweepPoint{id, cfg});
        SweepRunner(exp, jobs).run(grid);
        Telemetry telemetry(tinyTelemetryConfig());
        runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(),
                      {.telemetry = &telemetry});
        std::ostringstream csv, json;
        telemetry.writeCsv(csv);
        telemetry.writeJson(json);
        return std::make_pair(csv.str(), json.str());
    };
    const auto [csv1, json1] = pipeline(1);
    const auto [csv4, json4] = pipeline(4);
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(json1, json4);

    // Sanity on the CSV shape: one header plus one row per interval,
    // header pinned to the documented leading columns.
    EXPECT_EQ(csv1.rfind("cycle_start,cycle_end,page_div_n,"
                         "page_div_sum,page_div_max,",
                         0),
              0u);
    const auto rows = static_cast<std::size_t>(
        std::count(csv1.begin(), csv1.end(), '\n'));
    Telemetry probe(tinyTelemetryConfig());
    runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(), {.telemetry = &probe});
    EXPECT_EQ(rows, probe.sampler().intervals().size() + 1);
}

TEST(Telemetry, ArmedCheckerAndSamplerComposeCleanly)
{
    // Invariant checking and telemetry are independent observation
    // layers; armed together they must still match the plain run.
    auto armed = paperDefault();
    armed.checkInvariants = true;
    const RunOutput plain =
        runConfigFull(BenchmarkId::Bfs, paperDefault(), tinyParams());
    Telemetry telemetry(tinyTelemetryConfig());
    const RunOutput both = runConfigFull(BenchmarkId::Bfs, armed, tinyParams(),
                                         {.telemetry = &telemetry});
    EXPECT_TRUE(plain.stats == both.stats);
    EXPECT_EQ(plain.statsJson, both.statsJson);
    EXPECT_FALSE(telemetry.heat().pages().empty());
}

TEST(Telemetry, StallSnapshotMatchesTheStatDump)
{
    // finish() aggregates "<core>.stalls.<reason>" histograms across
    // cores; the per-reason warp totals must equal what the dump
    // itself reports.
    Telemetry telemetry(tinyTelemetryConfig());
    const RunOutput out = runConfigFull(BenchmarkId::Bfs, paperDefault(),
                                        tinyParams(),
                                        {.telemetry = &telemetry});
    ASSERT_FALSE(telemetry.stalls().empty());
    for (const auto &[reason, total] : telemetry.stalls()) {
        EXPECT_EQ(total.warps,
                  sumCountersEndingWith(
                      out.statsJson,
                      ".stalls." + reason + "\":{\"count"))
            << reason;
    }
}

TEST(Telemetry, ReportRendersAndFlagsEmptyHeat)
{
    Telemetry telemetry(tinyTelemetryConfig());
    runConfigFull(BenchmarkId::Bfs, paperDefault(), tinyParams(),
                  {.telemetry = &telemetry});
    std::ostringstream os;
    EXPECT_TRUE(writeHtmlReport(os, telemetry));
    const std::string html = os.str();
    EXPECT_NE(html.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_NE(html.find("const DATA={\"meta\""), std::string::npos);
    EXPECT_NE(html.find("id=\"hotpages\""), std::string::npos);
    // The embedded JSON must not contain a raw "</" (it would close
    // the script element early and break the page).
    const auto data_at = html.find("const DATA=");
    const auto data_end = html.find("</script>", data_at);
    ASSERT_NE(data_end, std::string::npos);
    EXPECT_EQ(html.substr(data_at, data_end - data_at).find("</"),
              std::string::npos);

    // An unused telemetry (no walks attributed) renders a warning
    // page and reports failure - the CI empty-report gate.
    Telemetry idle;
    std::ostringstream empty_os;
    EXPECT_FALSE(writeHtmlReport(empty_os, idle));
    EXPECT_NE(empty_os.str().find("Empty hot-page table"),
              std::string::npos);
}

TEST(Telemetry, TopTablesAreDeterministicallyOrdered)
{
    Telemetry telemetry(tinyTelemetryConfig());
    runConfigFull(BenchmarkId::Bfs, paperDefault(), tinyParams(),
                  {.telemetry = &telemetry});
    const auto pages = telemetry.heat().topPages(16);
    ASSERT_FALSE(pages.empty());
    for (std::size_t i = 1; i < pages.size(); ++i) {
        const bool hotter =
            pages[i - 1].second.walks > pages[i].second.walks;
        const bool tie_by_vpn =
            pages[i - 1].second.walks == pages[i].second.walks &&
            pages[i - 1].first < pages[i].first;
        EXPECT_TRUE(hotter || tie_by_vpn) << i;
    }
    const auto lines = telemetry.heat().topLines(16);
    ASSERT_FALSE(lines.empty());
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const bool hotter =
            lines[i - 1].second.refs > lines[i].second.refs;
        const bool tie_by_addr =
            lines[i - 1].second.refs == lines[i].second.refs &&
            lines[i - 1].first < lines[i].first;
        EXPECT_TRUE(hotter || tie_by_addr) << i;
    }
}
