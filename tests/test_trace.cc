/**
 * @file
 * Tests for the event-tracing subsystem and stall attribution:
 *
 *  - TraceSink ring-buffer semantics (last-N retention, drop
 *    counting), category filtering and Chrome trace-event export;
 *  - a traced full-system bfs run producing parseable Chrome JSON
 *    that actually contains TLB, page-walk and DRAM events;
 *  - the per-warp stall ledger: unit arithmetic, and the system-level
 *    bound that every warp's attributed stall cycles never exceed the
 *    run's cycle count, across all six paper workloads.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "core/sweep.hh"
#include "gpu/gpu_top.hh"
#include "gpu/simt_core.hh"
#include "sched/warp_scheduler.hh"
#include "sim/event_queue.hh"
#include "trace/stall_accounting.hh"
#include "trace/trace.hh"

using namespace gpummu;

namespace {

/**
 * Minimal recursive-descent JSON validator: accepts exactly the
 * value grammar (objects, arrays, strings with escapes, numbers,
 * true/false/null) and rejects trailing garbage. Enough to prove the
 * exported trace is well-formed without a JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    lit(const char *t)
    {
        const std::size_t n = std::string(t).size();
        if (s_.compare(pos_, n, t) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{') {
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                ws();
                if (!string())
                    return false;
                ws();
                if (pos_ >= s_.size() || s_[pos_++] != ':')
                    return false;
                if (!value())
                    return false;
                ws();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return s_[pos_++] == '}';
            }
        }
        if (c == '[') {
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                if (!value())
                    return false;
                ws();
                if (pos_ >= s_.size())
                    return false;
                if (s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return s_[pos_++] == ']';
            }
        }
        if (c == '"')
            return string();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.03;
    p.seed = 42;
    return p;
}

SystemConfig
smallConfig()
{
    SystemConfig cfg = presets::augmentedTlb();
    cfg.numCores = 2;
    return cfg;
}

std::string
exportTrace(const TraceSink &sink)
{
    std::ostringstream os;
    sink.writeChromeTrace(os);
    return os.str();
}

} // namespace

TEST(TraceSink, RecordsInstantsSpansAndCounters)
{
    TraceSink sink(64);
    EventQueue eq;
    sink.bindClock(&eq);
    sink.instant(TraceCat::Tlb, "tlb_hit", 0, "vpn", 7);
    sink.span(TraceCat::Ptw, "page_walk", 0, 10, 25, "vpn", 7);
    sink.counter(TraceCat::Ptw, "walks_in_flight", 0, 3);
    EXPECT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.dropped(), 0u);

    const std::string json = exportTrace(sink);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"tlb_hit\""), std::string::npos);
    EXPECT_NE(json.find("\"page_walk\""), std::string::npos);
    EXPECT_NE(json.find("\"walks_in_flight\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceSink, RingKeepsTheLastNEvents)
{
    TraceSink sink(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.instantAt(TraceCat::Tlb, "ev", 0, /*ts=*/100 + i,
                       "idx", i);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);

    const std::string json = exportTrace(sink);
    EXPECT_TRUE(JsonChecker(json).valid());
    // Oldest events (idx 0..5) were overwritten; the survivors are
    // the last four, exported in chronological order.
    EXPECT_EQ(json.find("\"idx\":5"), std::string::npos);
    EXPECT_NE(json.find("\"idx\":6"), std::string::npos);
    EXPECT_NE(json.find("\"idx\":9"), std::string::npos);
    EXPECT_LT(json.find("\"idx\":6"), json.find("\"idx\":9"));
    EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos);
}

TEST(TraceSink, PrefixFilterMasksCategories)
{
    TraceSink sink(16);
    sink.setFilter("tlb");
    EXPECT_TRUE(sink.wants(TraceCat::Tlb));
    EXPECT_FALSE(sink.wants(TraceCat::Ptw));
    EXPECT_FALSE(sink.wants(TraceCat::Dram));
    sink.instantAt(TraceCat::Tlb, "tlb_hit", 0, 1);
    sink.instantAt(TraceCat::Dram, "dram_busy", 0, 1);
    EXPECT_EQ(sink.size(), 1u);

    // "l" matches both l1 and l2; empty restores everything.
    sink.setFilter("l");
    EXPECT_TRUE(sink.wants(TraceCat::L1));
    EXPECT_TRUE(sink.wants(TraceCat::L2));
    EXPECT_FALSE(sink.wants(TraceCat::Tlb));
    sink.setFilter("");
    for (std::size_t c = 0; c < kNumTraceCats; ++c)
        EXPECT_TRUE(sink.wants(static_cast<TraceCat>(c)));
}

TEST(TracedRun, BfsProducesParseableChromeTraceWithKeyEvents)
{
    TraceSink sink;
    const RunOutput out = runConfigFull(BenchmarkId::Bfs, smallConfig(),
                                        tinyParams(), {.trace = &sink});
    ASSERT_GT(out.stats.cycles, 0u);
    ASSERT_GT(sink.size(), 0u);

    const std::string json = exportTrace(sink);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // The acceptance trio: TLB activity, the page-walk lifecycle and
    // DRAM service spans must all be present in a real run's trace.
    EXPECT_NE(json.find("\"tlb_"), std::string::npos);
    EXPECT_NE(json.find("\"page_walk\""), std::string::npos);
    EXPECT_NE(json.find("\"dram_busy\""), std::string::npos);
}

TEST(TracedRun, FilterRestrictsARunToOneComponent)
{
    TraceSink sink;
    sink.setFilter("ptw");
    runConfigFull(BenchmarkId::Bfs, smallConfig(), tinyParams(),
                  {.trace = &sink});
    ASSERT_GT(sink.size(), 0u);
    const std::string json = exportTrace(sink);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"page_walk\""), std::string::npos);
    EXPECT_EQ(json.find("\"tlb_hit\""), std::string::npos);
    EXPECT_EQ(json.find("\"dram_busy\""), std::string::npos);
    EXPECT_EQ(json.find("\"l1_"), std::string::npos);
}

TEST(StallAccounting, LedgerArithmetic)
{
    WarpStallAccounting sa;
    sa.attribute(0, StallReason::TlbMiss);
    sa.attribute(0, StallReason::TlbMiss);
    sa.attribute(0, StallReason::Dram);
    sa.attribute(2, StallReason::L1Miss);
    sa.attribute(1, StallReason::None);   // ignored
    sa.attribute(-1, StallReason::Dram);  // ignored
    EXPECT_EQ(sa.numWarps(), 3u);
    EXPECT_EQ(sa.warpTotal(0), 3u);
    EXPECT_EQ(sa.warpTotal(1), 0u);
    EXPECT_EQ(sa.warpTotal(2), 1u);
    EXPECT_EQ(sa.reasonTotal(StallReason::TlbMiss), 2u);
    EXPECT_EQ(sa.reasonTotal(StallReason::Dram), 1u);
    EXPECT_EQ(sa.reasonTotal(StallReason::L1Miss), 1u);
    EXPECT_EQ(sa.reasonTotal(StallReason::Reconvergence), 0u);
}

TEST(StallAccounting, DominantStallPicksThePriorityWinner)
{
    EXPECT_EQ(dominantStall(StallReason::TlbMiss, StallReason::Dram),
              StallReason::TlbMiss);
    EXPECT_EQ(dominantStall(StallReason::L1Miss, StallReason::Dram),
              StallReason::Dram);
    EXPECT_EQ(dominantStall(StallReason::None,
                            StallReason::Interconnect),
              StallReason::Interconnect);
}

TEST(StallAccounting, FinalizeIsIdempotentAndRegistersHistograms)
{
    WarpStallAccounting sa;
    StatRegistry reg;
    sa.regStats(reg, "core0");
    sa.attribute(0, StallReason::TlbMiss);
    sa.attribute(1, StallReason::TlbMiss);
    sa.finalize();
    sa.finalize(); // second fold must not double the samples
    const Histogram *h = reg.findHistogram("core0.stalls.tlb_miss");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 2u);
    EXPECT_EQ(h->sum(), 2u);
    ASSERT_NE(reg.findHistogram("core0.stalls.dram"), nullptr);
    EXPECT_EQ(reg.findHistogram("core0.stalls.dram")->count(), 0u);
}

// The attribution contract: at most one reason per (warp, cycle), so
// no warp slot can accumulate more attributed stall cycles than the
// run has cycles. Checked for every paper workload.
TEST(StallAccounting, AttributedCyclesBoundedByRunCyclesAllWorkloads)
{
    const SystemConfig cfg = smallConfig();
    for (BenchmarkId id : allBenchmarks()) {
        auto workload = makeWorkload(id, tinyParams());
        GpuTop gpu(
            cfg.numCores, cfg.mem, *workload,
            [&cfg](int core_id, const LaunchParams &launch,
                   AddressSpace &as, MemorySystem &mem,
                   EventQueue &eq) -> std::unique_ptr<ShaderCore> {
                auto core = std::make_unique<SimtCore>(
                    core_id, cfg.core, launch, as, mem, eq);
                core->setScheduler(
                    std::make_unique<GreedyThenOldest>());
                return core;
            },
            cfg.largePages, cfg.physFrames);
        const RunStats stats = gpu.run(cfg.maxCycles);
        ASSERT_GT(stats.cycles, 0u) << benchmarkName(id);

        std::uint64_t attributed = 0;
        for (unsigned c = 0; c < gpu.numCores(); ++c) {
            const auto &sa = gpu.core(c).stallAccounting();
            for (std::size_t w = 0; w < sa.numWarps(); ++w) {
                EXPECT_LE(sa.warpTotal(static_cast<int>(w)),
                          stats.cycles)
                    << benchmarkName(id) << " core " << c << " warp "
                    << w;
                attributed += sa.warpTotal(static_cast<int>(w));
            }
        }
        // A memory-bound simulator run with a real TLB must attribute
        // *some* stall time; zero would mean the hooks fell off.
        EXPECT_GT(attributed, 0u) << benchmarkName(id);
    }
}
