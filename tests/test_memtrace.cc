/**
 * @file
 * Memory-trace capture/replay tests.
 *
 * The load-bearing guarantee is the differential: a trace captured
 * from a run replays *bit-identically* — same RunStats, same JSON
 * stat dump — when driven back through the same design point, for
 * both the per-core MMU stack and the IOMMU. The second guarantee is
 * that capture is observation-only: an armed run's stat dump is
 * byte-identical to an unarmed one's. The rest pins the loader's
 * malformed-input rejections: every corruption is a clear one-line
 * error, never UB.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "gpu/kernel.hh"
#include "gpu/simt_stack.hh"
#include "trace/memtrace.hh"
#include "workloads/replay.hh"

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
shrink(SystemConfig cfg)
{
    cfg.numCores = 4;
    return cfg;
}

/** Temp path that cleans up after itself. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Capture (bench, cfg), then replay the trace under the same
 *  config and require bit-identical results. */
void
expectReplayIdentical(BenchmarkId bench, const SystemConfig &cfg,
                      const std::string &tag)
{
    TempFile trace(tag + ".memtrace");
    MemTraceWriter writer(trace.path());
    const RunOutput source = runConfigFull(bench, cfg, tinyParams(),
                                           {.memtrace = &writer});
    ASSERT_TRUE(writer.ok()) << writer.error();
    ASSERT_GT(writer.accessesRecorded(), 0u);

    auto replay = TraceReplayWorkload::fromFile(trace.path());
    EXPECT_EQ(replay->meta().bench, benchmarkName(bench));
    EXPECT_EQ(replay->meta().config, cfg.name);
    const RunOutput replayed = runWorkloadFull(*replay, cfg);

    EXPECT_TRUE(source.stats == replayed.stats);
    EXPECT_EQ(source.statsJson, replayed.statsJson);
}

/** A minimal syntactically valid trace the negative tests mutate. */
const char *kTinyTrace =
    "gpummu-memtrace 1\n"
    "meta bench=t config=c cores=1 seed=1 scale=1 tpb=32 blocks=1 "
    "large=0\n"
    "region r 4096\n"
    "prog 2 1 1\n"
    "i 0 ld 0\n"
    "i 0 br 0 1 1 1\n"
    "i 1 exit\n"
    "A 5 0 0 0 L 1 1000\n"
    "B 0 0 0 1 1\n"
    "end accesses=1 branches=1 cycles=10\n";

/** Load @p text and require failure with @p needle in the error. */
void
expectLoadFails(const std::string &text, const std::string &needle)
{
    std::istringstream in(text);
    MemTraceData data;
    std::string err;
    ASSERT_FALSE(loadMemTrace(in, data, err)) << text;
    EXPECT_NE(err.find(needle), std::string::npos)
        << "error was: " << err;
}

/** kTinyTrace with line @p lineNo (1-based) replaced by @p repl
 *  (empty = deleted). */
std::string
mutateLine(int line_no, const std::string &repl)
{
    std::istringstream in(kTinyTrace);
    std::ostringstream out;
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
        ++n;
        if (n == line_no) {
            if (!repl.empty())
                out << repl << "\n";
        } else {
            out << line << "\n";
        }
    }
    return out.str();
}

TEST(MemTraceDifferential, MemcachedAugmentedTlbReplaysBitIdentical)
{
    expectReplayIdentical(BenchmarkId::Memcached,
                          shrink(presets::augmentedTlb()),
                          "mc_augmented");
}

TEST(MemTraceDifferential, BfsIommuReplaysBitIdentical)
{
    expectReplayIdentical(BenchmarkId::Bfs, shrink(presets::iommu()),
                          "bfs_iommu");
}

TEST(MemTraceDifferential, HashprobeReplaysBitIdentical)
{
    expectReplayIdentical(BenchmarkId::Hashprobe,
                          shrink(presets::augmentedTlb()),
                          "hashprobe_augmented");
}

TEST(MemTrace, CaptureIsObservationOnly)
{
    const SystemConfig cfg = shrink(presets::augmentedTlb());
    const RunOutput unarmed =
        runConfigFull(BenchmarkId::Bfs, cfg, tinyParams());

    TempFile trace("observation_only.memtrace");
    MemTraceWriter writer(trace.path());
    const RunOutput armed = runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(),
                                          {.memtrace = &writer});
    ASSERT_TRUE(writer.ok()) << writer.error();

    // The writer registers no stats, so the armed dump is
    // byte-identical — this is what lets CI cmp captured and
    // replayed dumps directly.
    EXPECT_TRUE(unarmed.stats == armed.stats);
    EXPECT_EQ(unarmed.statsJson, armed.statsJson);
}

TEST(MemTrace, ReplayedTraceCanDriveOtherConfigs)
{
    // A trace is a portable workload: the recorded reference stream
    // must also drive design points it was not captured under.
    TempFile trace("portable.memtrace");
    MemTraceWriter writer(trace.path());
    const SystemConfig cfg = shrink(presets::augmentedTlb());
    runConfigFull(BenchmarkId::Memcached, cfg, tinyParams(),
                  {.memtrace = &writer});
    ASSERT_TRUE(writer.ok()) << writer.error();

    auto replay = TraceReplayWorkload::fromFile(trace.path());
    const RunOutput under_iommu =
        runWorkloadFull(*replay, shrink(presets::iommu()));
    EXPECT_GT(under_iommu.stats.cycles, 0u);
    EXPECT_EQ(under_iommu.stats.memInstructions,
              writer.accessesRecorded());
}

TEST(MemTrace, WriterLoaderRoundTrip)
{
    TempFile trace("roundtrip.memtrace");
    MemTraceWriter writer(trace.path());
    writer.setConfigName("augmented-tlb");
    const SystemConfig cfg = shrink(presets::augmentedTlb());
    runConfigFull(BenchmarkId::Pathfinder, cfg, tinyParams(),
                  {.memtrace = &writer});
    ASSERT_TRUE(writer.ok()) << writer.error();

    MemTraceData data;
    std::string err;
    ASSERT_TRUE(loadMemTraceFile(trace.path(), data, err)) << err;
    EXPECT_EQ(data.meta.bench, "pathfinder");
    EXPECT_EQ(data.meta.config, "augmented-tlb");
    EXPECT_EQ(data.meta.numCores, 4u);
    EXPECT_EQ(data.meta.seed, 42u);
    EXPECT_FALSE(data.meta.largePages);
    EXPECT_FALSE(data.regions.empty());
    EXPECT_EQ(data.accesses.size(), writer.accessesRecorded());
    EXPECT_EQ(data.branches.size(), writer.branchesRecorded());
    EXPECT_FALSE(data.blocks.empty());
    // Access cycles are nondecreasing and lane counts match masks.
    Cycle last = 0;
    for (const MemTraceAccess &a : data.accesses) {
        EXPECT_GE(a.cycle, last);
        last = a.cycle;
        EXPECT_EQ(a.addrs.size(),
                  static_cast<std::size_t>(popcount64(a.mask)));
    }
}

TEST(MemTrace, WriterFailsOnUnwritablePath)
{
    MemTraceWriter writer("/nonexistent-dir/x/y/z.memtrace");
    MemTraceMeta meta;
    meta.bench = "t";
    meta.numCores = 1;
    meta.threadsPerBlock = 32;
    meta.numBlocks = 1;
    KernelProgram prog("t");
    const int b = prog.addBlock();
    prog.appendExit(b);
    EXPECT_FALSE(writer.beginRun(meta, {}, prog));
    EXPECT_FALSE(writer.ok());
    EXPECT_NE(writer.error().find("cannot open"), std::string::npos);
}

TEST(MemTrace, LoaderAcceptsTheTinyTrace)
{
    std::istringstream in(kTinyTrace);
    MemTraceData data;
    std::string err;
    ASSERT_TRUE(loadMemTrace(in, data, err)) << err;
    EXPECT_EQ(data.blocks.size(), 2u);
    EXPECT_EQ(data.accesses.size(), 1u);
    EXPECT_EQ(data.branches.size(), 1u);
    EXPECT_EQ(data.cycles, 10u);
}

TEST(MemTraceNegative, BadMagic)
{
    expectLoadFails(mutateLine(1, "not-a-memtrace 1"),
                    "not a gpummu-memtrace file");
}

TEST(MemTraceNegative, UnsupportedVersion)
{
    expectLoadFails(mutateLine(1, "gpummu-memtrace 99"),
                    "unsupported memtrace version 99");
}

TEST(MemTraceNegative, EmptyInput)
{
    expectLoadFails("", "empty input");
}

TEST(MemTraceNegative, TruncatedNoEnd)
{
    expectLoadFails(mutateLine(10, ""), "truncated trace: no end");
}

TEST(MemTraceNegative, EndCountsMismatch)
{
    expectLoadFails(
        mutateLine(10, "end accesses=7 branches=1 cycles=10"),
        "end counts do not match");
}

TEST(MemTraceNegative, OutOfOrderCycles)
{
    // A second access at an earlier cycle than the first.
    std::string text = mutateLine(
        10, "A 3 0 0 0 L 1 2000\n"
            "end accesses=2 branches=1 cycles=10");
    expectLoadFails(text, "out-of-order access cycle");
}

TEST(MemTraceNegative, AddressCountMaskMismatch)
{
    // Mask says two lanes, record carries one address.
    expectLoadFails(mutateLine(8, "A 5 0 0 0 L 3 1000"),
                    "address count does not match the lane mask");
}

TEST(MemTraceNegative, TakenMaskNotSubset)
{
    expectLoadFails(mutateLine(9, "B 0 0 0 1 3"),
                    "taken mask is not a subset");
}

TEST(MemTraceNegative, MissingMeta)
{
    expectLoadFails(mutateLine(2, ""), "before meta");
}

TEST(MemTraceNegative, MetaMissingCores)
{
    expectLoadFails(
        mutateLine(2, "meta bench=t config=c seed=1 scale=1 tpb=32 "
                      "blocks=1 large=0"),
        "meta record missing bench/cores/tpb/blocks");
}

TEST(MemTraceNegative, MetaRejectsTrailingGarbageNumbers)
{
    expectLoadFails(
        mutateLine(2, "meta bench=t config=c cores=1 seed=1x scale=1 "
                      "tpb=32 blocks=1 large=0"),
        "bad seed");
}

TEST(MemTraceNegative, NonWarpMultipleTpb)
{
    expectLoadFails(
        mutateLine(2, "meta bench=t config=c cores=1 seed=1 scale=1 "
                      "tpb=33 blocks=1 large=0"),
        "bad tpb");
}

TEST(MemTraceNegative, InstructionGenOutOfRange)
{
    expectLoadFails(mutateLine(5, "i 0 ld 7"),
                    "bad load generator id");
}

TEST(MemTraceNegative, BranchTargetOutOfRange)
{
    expectLoadFails(mutateLine(6, "i 0 br 0 9 1 1"),
                    "branch target out of range");
}

TEST(MemTraceNegative, AccessBlockOutOfRange)
{
    expectLoadFails(mutateLine(8, "A 5 0 4 0 L 1 1000"),
                    "block id out of range");
}

TEST(MemTraceNegative, AccessWarpOutOfRange)
{
    expectLoadFails(mutateLine(8, "A 5 0 0 3 L 1 1000"),
                    "warp id out of range");
}

TEST(MemTraceNegative, BadRegionSize)
{
    expectLoadFails(mutateLine(3, "region r 0"), "bad region size");
}

TEST(MemTraceNegative, UnknownRecordType)
{
    expectLoadFails(mutateLine(8, "Z what is this"),
                    "unknown record type");
}

TEST(MemTraceNegative, TrailingDataAfterEnd)
{
    expectLoadFails(std::string(kTinyTrace) + "A 11 0 0 0 L 1 1000\n",
                    "trailing data after end record");
}

TEST(MemTraceNegative, UnreadableFileIsAnError)
{
    MemTraceData data;
    std::string err;
    EXPECT_FALSE(loadMemTraceFile("/nonexistent.memtrace", data, err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

} // namespace
