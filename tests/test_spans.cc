/**
 * @file
 * Translation-lifecycle span tracing regression tests.
 *
 * Span tracking is observation-only; these tests pin the contract
 * from both sides. Arming it never changes simulated results:
 * bit-identical stat dumps on every registry workload and on the
 * IOMMU, TBC and multi-tenant paths, byte-stable exports at any
 * sweep job count. And what it records is complete: spans conserve
 * against the simulation's own counters (opens against L1 TLB
 * accesses, walk references against the walkers' refs_issued, merge
 * stages against the MSHR/merge counters), every span's queueing and
 * service cycles telescope to its end-to-end latency exactly, and
 * the top-K slowest-span selection is deterministic and ordered.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>

#include "core/experiment.hh"
#include "core/multi_tenant.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "telemetry/span.hh"

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

/** Sum every counter in a statsJson dump whose name ends with
 *  @p suffix (e.g. ".mmu.tlb.accesses" across cores). */
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

TEST(Spans, ArmedRunIsBitIdenticalOnEveryWorkload)
{
    // The acceptance bar for the whole subsystem: a span-armed run
    // must be indistinguishable from an unarmed one in every
    // simulated stat, on every registry workload...
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        const RunOutput plain = runConfigFull(id, cfg, tinyParams());
        SpanTracker spans;
        const RunOutput armed =
            runConfigFull(id, cfg, tinyParams(), {.spans = &spans});
        EXPECT_TRUE(plain.stats == armed.stats) << benchmarkName(id);
        EXPECT_EQ(plain.statsJson, armed.statsJson)
            << benchmarkName(id);
        // ...while actually recording something, and retiring every
        // span it opened (the run drains before finishing).
        EXPECT_FALSE(spans.empty()) << benchmarkName(id);
        EXPECT_EQ(spans.spansOpen(), 0u) << benchmarkName(id);
    }
}

TEST(Spans, ArmedIommuTbcAndMultiTenantAreBitIdentical)
{
    // The three non-default arming paths: the IOMMU's shared
    // translation machinery, the TBC core kind, and the multi-tenant
    // runner's per-slice transient cores.
    auto io = presets::iommu();
    io.numCores = 4;
    const RunOutput io_plain =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams());
    SpanTracker io_spans;
    const RunOutput io_armed =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams(),
                      {.spans = &io_spans});
    EXPECT_TRUE(io_plain.stats == io_armed.stats);
    EXPECT_EQ(io_plain.statsJson, io_armed.statsJson);
    EXPECT_FALSE(io_spans.empty());
    EXPECT_GT(io_spans.stageCount(SpanStage::IommuLookup), 0u);

    auto tbc = presets::tbc(paperDefault());
    const RunOutput tbc_plain =
        runConfigFull(BenchmarkId::Bfs, tbc, tinyParams());
    SpanTracker tbc_spans;
    const RunOutput tbc_armed =
        runConfigFull(BenchmarkId::Bfs, tbc, tinyParams(),
                      {.spans = &tbc_spans});
    EXPECT_TRUE(tbc_plain.stats == tbc_armed.stats);
    EXPECT_EQ(tbc_plain.statsJson, tbc_armed.statsJson);
    EXPECT_FALSE(tbc_spans.empty());

    MultiTenantConfig mt = defaultMultiTenant(/*scale=*/0.03);
    mt.params.seed = 42;
    const MultiTenantResult mt_plain = runMultiTenant(mt);
    SpanTracker mt_spans;
    const MultiTenantResult mt_armed =
        runMultiTenant(mt, {.spans = &mt_spans});
    EXPECT_EQ(mt_plain.statsJson, mt_armed.statsJson);
    EXPECT_EQ(mt_plain.totalCycles, mt_armed.totalCycles);
    EXPECT_FALSE(mt_spans.empty());
    // Span keys carry the tenants' ASIDs, so the per-ASID breakdown
    // sees both processes.
    EXPECT_EQ(mt_spans.perAsid().size(), mt.tenants.size());
}

TEST(Spans, ConservationAgainstSimulationCounters)
{
    // Every translation request must open exactly one span (opens ==
    // the cores' L1 TLB accesses), every page-walk memory reference
    // must be attributed (walk refs == the walkers' refs_issued),
    // and every merge the MMUs count must land in a merge stage.
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        SpanTracker spans;
        const RunOutput out =
            runConfigFull(id, cfg, tinyParams(), {.spans = &spans});
        EXPECT_EQ(spans.spansOpened(),
                  sumCountersEndingWith(out.statsJson,
                                        ".mmu.tlb.accesses"))
            << benchmarkName(id);
        EXPECT_EQ(spans.walkRefsTotal(), out.stats.walkRefsIssued)
            << benchmarkName(id);
        EXPECT_EQ(spans.stageCount(SpanStage::MmuMerge),
                  sumCountersEndingWith(out.statsJson,
                                        ".mmu.merged_walks"))
            << benchmarkName(id);
        // Every span either hit in the L1 or went down the miss
        // path; the two partitions cover all opens.
        EXPECT_EQ(spans.stageCount(SpanStage::L1Hit) +
                      spans.stageCount(SpanStage::L1Miss),
                  spans.spansOpened())
            << benchmarkName(id);
    }
}

TEST(Spans, SharedL2AndIommuMergesConserve)
{
    // The shared-L2-TLB path: spans merged into an L2 translation
    // MSHR reconcile with the L2's own merge counter.
    const auto l2 = presets::withSharedL2Tlb(paperDefault());
    SpanTracker l2_spans;
    const RunOutput l2_out =
        runConfigFull(BenchmarkId::Bfs, l2, tinyParams(),
                      {.spans = &l2_spans});
    EXPECT_EQ(l2_spans.stageCount(SpanStage::L2Merge),
              sumCountersEndingWith(l2_out.statsJson,
                                    "l2tlb.mshr_merges"));
    EXPECT_GT(l2_spans.stageCount(SpanStage::L2Lookup), 0u);

    // The IOMMU path likewise, against the IOMMU's merge counter and
    // its walkers' reference counter.
    auto io = presets::iommu();
    io.numCores = 4;
    SpanTracker io_spans;
    const RunOutput io_out =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams(),
                      {.spans = &io_spans});
    EXPECT_EQ(io_spans.stageCount(SpanStage::IommuMerge),
              sumCountersEndingWith(io_out.statsJson,
                                    "iommu.merged_walks"));
    EXPECT_EQ(io_spans.walkRefsTotal(),
              sumCountersEndingWith(io_out.statsJson,
                                    ".ptw.refs_issued"));
}

TEST(Spans, QueueingPlusServiceIsExactlyEndToEnd)
{
    // The arrival-interval accounting telescopes: per-span queueing
    // + service cycles equal the span's end-to-end latency with no
    // double-counted or lost cycles, per retained span and in the
    // aggregate histograms.
    SpanTracker spans;
    runConfigFull(BenchmarkId::Hashprobe, paperDefault(), tinyParams(),
                  {.spans = &spans});
    ASSERT_FALSE(spans.topSpans().empty());
    for (const SpanTracker::ClosedSpan &sp : spans.topSpans()) {
        EXPECT_EQ(sp.queueing + sp.service, sp.latency());
        ASSERT_FALSE(sp.timeline.empty());
        // Timelines are cycle-monotone and start at the open.
        EXPECT_EQ(sp.timeline.front().cycle, sp.open);
        Cycle prev = sp.open;
        for (const auto &ev : sp.timeline) {
            EXPECT_GE(ev.cycle, prev);
            prev = ev.cycle;
        }
        EXPECT_EQ(sp.timeline.back().cycle, sp.close);
    }
    EXPECT_EQ(spans.queueing().sum() + spans.service().sum(),
              spans.endToEnd().sum());
    EXPECT_EQ(spans.endToEnd().count(), spans.spansClosed());
}

TEST(Spans, ExportsAreByteStableAcrossSweepJobCounts)
{
    // Pipeline parity: nothing about a prior parallel sweep may leak
    // into a later armed run - the span CSV and JSON must match byte
    // for byte whether the grid was swept on 1 worker or 4.
    const auto cfg = paperDefault();
    auto pipeline = [&](unsigned jobs) {
        Experiment exp(tinyParams());
        std::vector<SweepPoint> grid = {
            SweepPoint{BenchmarkId::Bfs, cfg},
            SweepPoint{BenchmarkId::Kmeans, cfg},
        };
        SweepRunner(exp, jobs).run(grid);
        SpanTracker spans;
        runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(), {.spans = &spans});
        std::ostringstream csv, json, summary;
        spans.writeCsv(csv);
        spans.writeJson(json);
        spans.writeSummary(summary);
        return std::make_tuple(csv.str(), json.str(),
                               summary.str());
    };
    const auto [csv1, json1, sum1] = pipeline(1);
    const auto [csv4, json4, sum4] = pipeline(4);
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(json1, json4);
    EXPECT_EQ(sum1, sum4);

    // Sanity on the export shape: the documented section headers and
    // stage table columns are pinned.
    EXPECT_EQ(csv1.rfind("# stages\n"
                         "stage,class,count,cycles,mean,p50,p95,p99,"
                         "min,max\n",
                         0),
              0u);
    EXPECT_NE(csv1.find("\n# walk_refs\n"), std::string::npos);
    EXPECT_NE(csv1.find("\n# top_spans\n"), std::string::npos);
    EXPECT_EQ(json1.rfind("{\"meta\":{\"spans_opened\":", 0), 0u);
}

TEST(Spans, TopKSelectionIsDeterministicAndOrdered)
{
    // The retained slowest spans are totally ordered (latency
    // descending, then open cycle, then id - no unordered-map
    // iteration order leaks in) and identical across runs.
    auto run = [](std::size_t k) {
        auto spans = std::make_unique<SpanTracker>(k);
        runConfigFull(BenchmarkId::Bfs, paperDefault(), tinyParams(),
                      {.spans = spans.get()});
        return spans;
    };
    const auto a = run(8);
    const auto b = run(8);
    ASSERT_EQ(a->topSpans().size(), 8u);
    ASSERT_EQ(b->topSpans().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(a->topSpans()[i].id, b->topSpans()[i].id);
        EXPECT_EQ(a->topSpans()[i].latency(),
                  b->topSpans()[i].latency());
    }
    for (std::size_t i = 1; i < 8; ++i) {
        const auto &hi = a->topSpans()[i - 1];
        const auto &lo = a->topSpans()[i];
        const bool ordered =
            hi.latency() > lo.latency() ||
            (hi.latency() == lo.latency() &&
             (hi.open < lo.open ||
              (hi.open == lo.open && hi.id < lo.id)));
        EXPECT_TRUE(ordered) << "rank " << i;
    }
    // A larger retention window keeps a superset: the slowest 8 of
    // top-16 are the top-8.
    const auto wide = run(16);
    ASSERT_GE(wide->topSpans().size(), 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(wide->topSpans()[i].id, a->topSpans()[i].id);
}
