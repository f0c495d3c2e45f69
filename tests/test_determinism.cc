/**
 * @file
 * Replay regression: the simulator's determinism contract is that a
 * run's results depend only on (seed, benchmark, config). Each of
 * the six paper workloads runs twice under the paper-default
 * augmented-MMU preset and must produce identical cycle counts, TLB
 * miss counts, page-walk stats and byte-identical JSON stat dumps.
 *
 * If this test starts failing, someone introduced wall-clock- or
 * address-ordering-dependent state (e.g. seeding from time, hashing
 * pointers, or iterating an unordered container into a stat). Fix
 * the nondeterminism; do not loosen the assertions.
 */

#include <gtest/gtest.h>

#include "core/multi_tenant.hh"
#include "core/presets.hh"
#include "core/sweep.hh"
#include "sim/arena.hh"
#include "telemetry/telemetry.hh"
#include "trace/trace.hh"

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
    cfg.numCores = 4; // shrunk for test speed; determinism is
                      // independent of machine size
    return cfg;
}

/**
 * Strip the "trace.*" counters an armed TraceSink registers (its own
 * health stats) so the rest of the dump can be compared byte-for-byte
 * against an unarmed run. Counter names sort the trace.* block last
 * among counters, so a simple per-entry erase suffices.
 */
std::string
withoutTraceStats(std::string json)
{
    for (std::string::size_type pos;
         (pos = json.find("\"trace.")) != std::string::npos;) {
        auto end = json.find_first_of(",}", json.find(':', pos));
        // Eat the preceding comma (trace.* never sorts first).
        json.erase(json[pos - 1] == ',' ? pos - 1 : pos, end - pos + 1);
    }
    return json;
}

} // namespace

TEST(Determinism, EveryWorkloadReplaysIdentically)
{
    const auto cfg = paperDefault();
    for (BenchmarkId id : allBenchmarks()) {
        const RunOutput a = runConfigFull(id, cfg, tinyParams());
        const RunOutput b = runConfigFull(id, cfg, tinyParams());

        EXPECT_EQ(a.stats.cycles, b.stats.cycles)
            << benchmarkName(id);
        EXPECT_EQ(a.stats.tlbAccesses, b.stats.tlbAccesses)
            << benchmarkName(id);
        EXPECT_EQ(a.stats.tlbHits, b.stats.tlbHits)
            << benchmarkName(id);
        EXPECT_EQ(a.stats.walkRefsIssued, b.stats.walkRefsIssued)
            << benchmarkName(id);
        EXPECT_EQ(a.stats.walkRefsEliminated,
                  b.stats.walkRefsEliminated)
            << benchmarkName(id);
        EXPECT_EQ(a.stats.walkL2Accesses, b.stats.walkL2Accesses)
            << benchmarkName(id);
        EXPECT_EQ(a.stats.walkL2Hits, b.stats.walkL2Hits)
            << benchmarkName(id);

        // And the full field-wise + stat-registry comparison.
        EXPECT_TRUE(a.stats == b.stats) << benchmarkName(id);
        EXPECT_EQ(a.statsJson, b.statsJson) << benchmarkName(id);
    }
}

TEST(Determinism, ReplayIsStableThroughTheParallelRunner)
{
    // A fresh serial Experiment and a fresh parallel one must agree
    // with direct runConfigFull for every workload.
    const auto cfg = paperDefault();
    std::vector<SweepPoint> grid;
    for (BenchmarkId id : allBenchmarks())
        grid.push_back(SweepPoint{id, cfg});

    Experiment exp(tinyParams());
    const auto results = SweepRunner(exp, 6).run(grid);
    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunOutput direct =
            runConfigFull(grid[i].bench, cfg, tinyParams());
        EXPECT_TRUE(results[i].stats == direct.stats)
            << benchmarkName(grid[i].bench);
        EXPECT_EQ(results[i].statsJson, direct.statsJson)
            << benchmarkName(grid[i].bench);
    }
}

TEST(Determinism, ArmedCheckerIsBitIdenticalAndVerifiesFills)
{
    // Arming the reference checker differentially verifies every TLB
    // fill, hit and walk of the run (a mismatch panics), and must not
    // perturb the simulation: identical stats, byte-identical JSON.
    const auto cfg = paperDefault();
    auto armed = cfg;
    armed.checkInvariants = true;
    for (BenchmarkId id : allBenchmarks()) {
        const RunOutput plain = runConfigFull(id, cfg, tinyParams());
        const RunOutput chk = runConfigFull(id, armed, tinyParams());
        EXPECT_TRUE(plain.stats == chk.stats) << benchmarkName(id);
        EXPECT_EQ(plain.statsJson, chk.statsJson)
            << benchmarkName(id);
    }
}

TEST(Determinism, ArmedCheckerCoversLargePagesAndIommu)
{
    // The 2MB-granularity and shared-IOMMU translation paths carry
    // their own tag/frame math; run each armed so the reference walk
    // cross-checks them too, again without perturbing results.
    auto large = presets::withLargePages(paperDefault());
    auto large_armed = large;
    large_armed.checkInvariants = true;
    const RunOutput lp =
        runConfigFull(BenchmarkId::Bfs, large, tinyParams());
    const RunOutput lpc =
        runConfigFull(BenchmarkId::Bfs, large_armed, tinyParams());
    EXPECT_TRUE(lp.stats == lpc.stats);
    EXPECT_EQ(lp.statsJson, lpc.statsJson);

    auto io = presets::iommu();
    io.numCores = 4;
    auto io_armed = io;
    io_armed.checkInvariants = true;
    const RunOutput i0 =
        runConfigFull(BenchmarkId::Bfs, io, tinyParams());
    const RunOutput i1 =
        runConfigFull(BenchmarkId::Bfs, io_armed, tinyParams());
    EXPECT_TRUE(i0.stats == i1.stats);
    EXPECT_EQ(i0.statsJson, i1.statsJson);
}

TEST(Determinism, ArmedTracingIsBitIdentical)
{
    // Event tracing is observation-only: a run with a TraceSink armed
    // must produce the same stats and byte-identical JSON as an
    // unarmed run, while actually recording events. Covers the SIMT
    // default, the TBC core and the shared-IOMMU path, whose hooks
    // live in different components.
    std::vector<SystemConfig> cfgs = {paperDefault()};
    cfgs.push_back(presets::tbc(paperDefault()));
    auto io = presets::iommu();
    io.numCores = 4;
    cfgs.push_back(io);
    for (const SystemConfig &cfg : cfgs) {
        const RunOutput plain =
            runConfigFull(BenchmarkId::Bfs, cfg, tinyParams());
        TraceSink sink;
        const RunOutput traced =
            runConfigFull(BenchmarkId::Bfs, cfg, tinyParams(),
                          {.trace = &sink});
        EXPECT_TRUE(plain.stats == traced.stats) << cfg.name;
        // The armed run's dump additionally carries the sink's own
        // health stats ("trace.dropped", "trace.events.*");
        // everything else must match byte for byte.
        EXPECT_NE(traced.statsJson.find("\"trace.dropped\":"),
                  std::string::npos)
            << cfg.name;
        EXPECT_EQ(plain.statsJson, withoutTraceStats(traced.statsJson))
            << cfg.name;
        EXPECT_GT(sink.size(), 0u) << cfg.name;
    }
}

TEST(Determinism, ParallelJobsAgreeWithSerialUnderArenaPooling)
{
    // The hot-path re-architecture (arena-backed descriptors plus
    // same-cycle event batching) must be invisible to the parallel
    // runner: a 6-worker sweep and a 1-worker sweep, with pooling on
    // and with the plain-heap fallback, all agree byte-for-byte.
    struct PoolingGuard
    {
        explicit PoolingGuard(bool pooled) { setArenaPooling(pooled); }
        ~PoolingGuard() { setArenaPooling(true); }
    };

    const auto cfg = paperDefault();
    std::vector<SweepPoint> grid;
    for (BenchmarkId id : allBenchmarks())
        grid.push_back(SweepPoint{id, cfg});

    std::vector<RunOutput> pooled_serial, pooled_par, heap_par;
    {
        PoolingGuard guard(true);
        Experiment serial_exp(tinyParams());
        pooled_serial = SweepRunner(serial_exp, 1).run(grid);
        Experiment par_exp(tinyParams());
        pooled_par = SweepRunner(par_exp, 6).run(grid);
    }
    {
        PoolingGuard guard(false);
        Experiment heap_exp(tinyParams());
        heap_par = SweepRunner(heap_exp, 6).run(grid);
    }

    ASSERT_EQ(pooled_serial.size(), grid.size());
    ASSERT_EQ(pooled_par.size(), grid.size());
    ASSERT_EQ(heap_par.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::string name = benchmarkName(grid[i].bench);
        EXPECT_TRUE(pooled_serial[i].stats == pooled_par[i].stats)
            << name << ": jobs=1 vs jobs=6 diverge with pooling on";
        EXPECT_EQ(pooled_serial[i].statsJson, pooled_par[i].statsJson)
            << name;
        EXPECT_TRUE(pooled_par[i].stats == heap_par[i].stats)
            << name << ": pooled vs heap fallback diverge";
        EXPECT_EQ(pooled_par[i].statsJson, heap_par[i].statsJson)
            << name;
    }
}

TEST(Determinism, ArmedObserversComposeWithArenasAndBatchedDispatch)
{
    // Telemetry and tracing both hook the re-architected hot path
    // (interval boundaries cap fast-forward windows; the trace sink
    // sees arena-backed descriptors). Each armed run must still be
    // bit-identical to the plain run on the modelled quantities.
    const auto cfg = paperDefault();
    const RunOutput plain =
        runConfigFull(BenchmarkId::Memcached, cfg, tinyParams());

    TelemetryConfig tcfg;
    tcfg.sampleInterval = 2000;
    Telemetry telemetry(tcfg);
    const RunOutput armed = runConfigFull(BenchmarkId::Memcached, cfg,
                                          tinyParams(),
                                          {.telemetry = &telemetry});
    EXPECT_TRUE(plain.stats == armed.stats)
        << "telemetry perturbed an arena-pooled batched run";
    EXPECT_EQ(plain.statsJson, armed.statsJson);

    TraceSink sink;
    const RunOutput traced = runConfigFull(BenchmarkId::Memcached, cfg,
                                           tinyParams(), {.trace = &sink});
    EXPECT_TRUE(plain.stats == traced.stats)
        << "tracing perturbed an arena-pooled batched run";
    EXPECT_EQ(plain.statsJson, withoutTraceStats(traced.statsJson));
    EXPECT_GT(sink.size(), 0u);
}

namespace {

MultiTenantConfig
tinyMultiTenant()
{
    MultiTenantConfig cfg = defaultMultiTenant(/*scale=*/0.02);
    cfg.system.numCores = 2;
    cfg.params.seed = 42;
    cfg.blocksPerSlice = 2;
    return cfg;
}

} // namespace

TEST(Determinism, MultiTenantReplaysIdentically)
{
    // The multi-tenant runner adds OS-side state the single-process
    // paths never touch: demand-fault scheduling, shootdown ordering,
    // slice interleaving. All of it must replay exactly.
    const MultiTenantConfig cfg = tinyMultiTenant();
    const MultiTenantResult a = runMultiTenant(cfg);
    const MultiTenantResult b = runMultiTenant(cfg);

    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.slices, b.slices);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.shootdowns, b.shootdowns);
    EXPECT_EQ(a.shootdownEntries, b.shootdownEntries);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_EQ(a.statsJson, b.statsJson);
}

TEST(Determinism, MultiTenantArmedCheckerIsBitIdentical)
{
    // Arming the differential checker across every tenant's reference
    // walker must not perturb the run (per-ASID fills, MSHR poison
    // bookkeeping and fault retries are all observation-checked).
    const MultiTenantConfig plain_cfg = tinyMultiTenant();
    MultiTenantConfig armed_cfg = plain_cfg;
    armed_cfg.system.checkInvariants = true;

    const MultiTenantResult plain = runMultiTenant(plain_cfg);
    const MultiTenantResult armed = runMultiTenant(armed_cfg);
    EXPECT_EQ(plain.totalCycles, armed.totalCycles);
    EXPECT_EQ(plain.statsJson, armed.statsJson);
}

TEST(Determinism, MultiTenantArmedObserversAreBitIdentical)
{
    // Tracing and telemetry hook the persistent shared structures
    // (memory system, IOMMU) across slice teardown; both must stay
    // observation-only.
    const MultiTenantConfig cfg = tinyMultiTenant();
    const MultiTenantResult plain = runMultiTenant(cfg);

    TraceSink sink;
    const MultiTenantResult traced = runMultiTenant(cfg, {.trace = &sink});
    EXPECT_EQ(plain.totalCycles, traced.totalCycles);
    EXPECT_EQ(plain.statsJson, withoutTraceStats(traced.statsJson));
    EXPECT_GT(sink.size(), 0u);

    TelemetryConfig tcfg;
    tcfg.sampleInterval = 2000;
    Telemetry telemetry(tcfg);
    const MultiTenantResult sampled =
        runMultiTenant(cfg, {.telemetry = &telemetry});
    EXPECT_EQ(plain.totalCycles, sampled.totalCycles);
    EXPECT_EQ(plain.statsJson, sampled.statsJson);
    EXPECT_GT(telemetry.sampler().intervals().size(), 0u);
}

TEST(Determinism, SeedIsTheOnlyFreeVariable)
{
    const auto cfg = paperDefault();
    auto p2 = tinyParams();
    p2.seed = 43;
    const RunOutput a =
        runConfigFull(BenchmarkId::Bfs, cfg, tinyParams());
    const RunOutput b = runConfigFull(BenchmarkId::Bfs, cfg, p2);
    EXPECT_NE(a.stats.cycles, b.stats.cycles);
    EXPECT_NE(a.statsJson, b.statsJson);
}
