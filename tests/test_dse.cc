/**
 * @file
 * Design-space autotuner tests: exact Pareto extraction over every
 * edge case the frontier math has (duplicates, one-axis ties, single
 * points, all-dominated sets), strict grid-spec parsing, stable
 * point hashing, the area cost model, and the load-bearing resume
 * contract — a fresh sweep and a fully-cached resumed sweep must
 * produce byte-identical frontier JSON with zero new simulations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dse/autotuner.hh"
#include "dse/cost.hh"
#include "dse/grid.hh"
#include "dse/pareto.hh"
#include "dse/report.hh"

using namespace gpummu;

namespace {

std::vector<std::size_t>
frontierOf(std::vector<ParetoPoint> pts)
{
    return paretoFrontier(pts);
}

/** O(n^2) reference: survive iff nothing dominates you. */
std::vector<std::size_t>
bruteFrontier(const std::vector<ParetoPoint> &pts)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < pts.size() && !dominated; ++j)
            dominated = j != i && paretoDominates(pts[j], pts[i]);
        if (!dominated)
            out.push_back(i);
    }
    return out;
}

DseGrid
tinyGrid()
{
    DseGrid g;
    const bool ok = namedGrid("tiny", g);
    EXPECT_TRUE(ok);
    return g;
}

DseOptions
tinyOptions()
{
    DseOptions opt;
    opt.bench = BenchmarkId::Bfs;
    opt.params.scale = 0.02;
    opt.params.seed = 42;
    opt.numCores = 4;
    opt.jobs = 2;
    return opt;
}

} // namespace

TEST(Pareto, EmptyAndSinglePoint)
{
    EXPECT_TRUE(frontierOf({}).empty());
    const auto f = frontierOf({{3.0, 7.0}});
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], 0u);
}

TEST(Pareto, DominanceDefinition)
{
    EXPECT_TRUE(paretoDominates({1, 1}, {2, 2}));
    EXPECT_TRUE(paretoDominates({1, 2}, {1, 3})); // tie on x
    EXPECT_TRUE(paretoDominates({1, 2}, {2, 2})); // tie on y
    EXPECT_FALSE(paretoDominates({1, 2}, {1, 2})); // duplicate
    EXPECT_FALSE(paretoDominates({1, 3}, {2, 2})); // incomparable
}

TEST(Pareto, DuplicatePointsSurviveTogether)
{
    // Two exact copies of the best point: neither dominates the
    // other, so both stay; the strictly-worse third point falls.
    const auto f = frontierOf({{1, 1}, {1, 1}, {2, 2}});
    EXPECT_EQ(f, (std::vector<std::size_t>{0, 1}));
    // Duplicates of a dominated point fall together.
    const auto g = frontierOf({{1, 1}, {3, 3}, {3, 3}});
    EXPECT_EQ(g, (std::vector<std::size_t>{0}));
}

TEST(Pareto, TiesOnOneAxisEliminateTheLoser)
{
    // Same x, different y: only the lower y survives.
    const auto f = frontierOf({{1, 5}, {1, 3}});
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], 1u);
    // Same y, different x: only the lower x survives.
    const auto g = frontierOf({{5, 1}, {3, 1}});
    ASSERT_EQ(g.size(), 1u);
    EXPECT_EQ(g[0], 1u);
}

TEST(Pareto, AllDominatedByOnePoint)
{
    const auto f =
        frontierOf({{5, 5}, {4, 6}, {1, 1}, {6, 4}, {2, 2}});
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], 2u);
}

TEST(Pareto, ClassicStaircase)
{
    // (1,9) (2,7) (4,4) (7,2) all incomparable; fillers dominated.
    const std::vector<ParetoPoint> pts{
        {1, 9}, {2, 7}, {4, 4}, {7, 2}, {3, 8}, {5, 5}, {8, 3}};
    const auto f = frontierOf(pts);
    EXPECT_EQ(f, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Pareto, MatchesBruteForceOnPseudoRandomSets)
{
    // Deterministic LCG; values land on a coarse lattice so
    // duplicates and one-axis ties occur constantly.
    std::uint64_t state = 12345;
    auto next = [&state] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return (state >> 33) % 16;
    };
    for (int round = 0; round < 50; ++round) {
        std::vector<ParetoPoint> pts;
        const std::size_t n = 1 + next() * 4;
        for (std::size_t i = 0; i < n; ++i) {
            pts.push_back(ParetoPoint{static_cast<double>(next()),
                                      static_cast<double>(next())});
        }
        auto fast = paretoFrontier(pts);
        auto brute = bruteFrontier(pts);
        std::sort(fast.begin(), fast.end());
        std::sort(brute.begin(), brute.end());
        EXPECT_EQ(fast, brute) << "round " << round;
    }
}

TEST(Pareto, ResultIndependentOfInputOrder)
{
    std::vector<ParetoPoint> pts{
        {1, 9}, {2, 7}, {4, 4}, {3, 8}, {4, 4}, {2, 2}};
    auto asSet = [&pts](const std::vector<std::size_t> &idx) {
        std::vector<ParetoPoint> out;
        for (std::size_t i : idx)
            out.push_back(pts[i]);
        std::sort(out.begin(), out.end(),
                  [](const ParetoPoint &a, const ParetoPoint &b) {
                      return a.x != b.x ? a.x < b.x : a.y < b.y;
                  });
        return out;
    };
    const auto ref = asSet(paretoFrontier(pts));
    std::reverse(pts.begin(), pts.end());
    const auto rev = asSet(paretoFrontier(pts));
    ASSERT_EQ(ref.size(), rev.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].x, rev[i].x);
        EXPECT_EQ(ref[i].y, rev[i].y);
    }
}

TEST(Grid, ParsesFullSpecAndRoundTrips)
{
    DseGrid g;
    std::string err;
    ASSERT_TRUE(parseGridSpec(
        "tlb_entries=64,128;tlb_ways=2,4;tlb_ports=2;pwc_lines=0,16;"
        "l2tlb_entries=0,4096;l2tlb_ports=2,4;walkers=1,2,1s;"
        "page=4k,2m",
        g, &err))
        << err;
    EXPECT_EQ(g.numPoints(), 2u * 2 * 1 * 2 * 2 * 2 * 3 * 2);
    // The canonical spec string reparses to the same grid.
    DseGrid g2;
    ASSERT_TRUE(parseGridSpec(gridSpecString(g), g2, &err)) << err;
    EXPECT_EQ(gridSpecString(g), gridSpecString(g2));
    EXPECT_EQ(g2.numPoints(), g.numPoints());
}

TEST(Grid, RejectsMalformedSpecs)
{
    DseGrid g;
    std::string err;
    // The misparse family the substrate bugfixes close off: trailing
    // garbage, overflow, zero where meaningless, unknown knobs.
    EXPECT_FALSE(parseGridSpec("tlb_entries=64abc", g, &err));
    EXPECT_FALSE(parseGridSpec(
        "tlb_entries=99999999999999999999999999", g, &err));
    EXPECT_FALSE(parseGridSpec("tlb_entries=0", g, &err));
    EXPECT_FALSE(parseGridSpec("tlb_ports=-2", g, &err));
    EXPECT_FALSE(parseGridSpec("tlb_entries=", g, &err));
    EXPECT_FALSE(parseGridSpec("frobnicate=3", g, &err));
    EXPECT_FALSE(parseGridSpec("walkers=2s", g, &err)); // sched => 1
    EXPECT_FALSE(parseGridSpec("walkers=0", g, &err));
    EXPECT_FALSE(parseGridSpec("page=1g", g, &err));
    EXPECT_FALSE(parseGridSpec("", g, &err));
    // pwc_lines=0 and l2tlb_entries=0 are meaningful (disabled).
    EXPECT_TRUE(parseGridSpec("pwc_lines=0;l2tlb_entries=0", g, &err))
        << err;
}

TEST(Grid, ExpansionValidatesGeometry)
{
    DseGrid g;
    std::string err;
    ASSERT_TRUE(
        parseGridSpec("tlb_entries=96;tlb_ways=64", g, &err));
    EXPECT_THROW(expandGrid(g), std::invalid_argument);
    DseGrid g2;
    ASSERT_TRUE(parseGridSpec("l2tlb_entries=100", g2, &err));
    EXPECT_THROW(expandGrid(g2), std::invalid_argument);
}

TEST(Grid, NamedGridsExpand)
{
    for (const char *name : {"tiny", "smoke", "default"}) {
        DseGrid g;
        ASSERT_TRUE(namedGrid(name, g)) << name;
        EXPECT_FALSE(expandGrid(g).empty()) << name;
    }
    DseGrid g;
    EXPECT_FALSE(namedGrid("nonesuch", g));
    EXPECT_EQ(tinyGrid().numPoints(), 8u);
    DseGrid dflt;
    ASSERT_TRUE(namedGrid("default", dflt));
    EXPECT_GE(dflt.numPoints(), 500u); // the acceptance-scale sweep
}

TEST(Grid, PointKeyIsStableAndSensitive)
{
    const DseOptions opt = tinyOptions();
    DseKnobs k;
    k.tlbEntries = 128;
    // Pinned identity: a change here means every cache in the wild
    // silently invalidates — bump kDseSchemaVersion if intentional.
    WorkloadParams params;
    params.scale = 0.03;
    params.seed = 42;
    EXPECT_EQ(dsePointKey(BenchmarkId::Bfs, params, 4, k),
              "2a391246d276eab6");
    // Same inputs, separately constructed: same key.
    EXPECT_EQ(dsePointKey(opt.bench, opt.params, 4, k),
              dsePointKey(opt.bench, opt.params, 4, k));
    // Any input change moves the key.
    DseKnobs k2 = k;
    k2.tlbEntries = 256;
    EXPECT_NE(dsePointKey(opt.bench, opt.params, 4, k2),
              dsePointKey(opt.bench, opt.params, 4, k));
    WorkloadParams p2 = opt.params;
    p2.seed = 43;
    EXPECT_NE(dsePointKey(opt.bench, p2, 4, k),
              dsePointKey(opt.bench, opt.params, 4, k));
    EXPECT_NE(dsePointKey(BenchmarkId::Kmeans, opt.params, 4, k),
              dsePointKey(opt.bench, opt.params, 4, k));
    EXPECT_NE(dsePointKey(opt.bench, opt.params, 8, k),
              dsePointKey(opt.bench, opt.params, 4, k));
}

TEST(Grid, MakeConfigMapsEveryKnob)
{
    DseKnobs k;
    k.tlbEntries = 256;
    k.tlbWays = 8;
    k.tlbPorts = 2;
    k.pwcLines = 0;
    k.l2tlbEntries = 2048;
    k.l2tlbPorts = 4;
    k.walkers = 2;
    k.walkSched = false;
    k.largePages = true;
    const SystemConfig cfg = makeDseConfig(k, 6);
    EXPECT_EQ(cfg.numCores, 6u);
    EXPECT_TRUE(cfg.core.mmu.enabled);
    EXPECT_EQ(cfg.core.mmu.tlb.entries, 256u);
    EXPECT_EQ(cfg.core.mmu.tlb.ways, 8u);
    EXPECT_EQ(cfg.core.mmu.tlb.ports, 2u);
    EXPECT_EQ(cfg.core.mmu.ptw.pwcLines, 0u);
    EXPECT_EQ(cfg.core.mmu.ptw.numWalkers, 2u);
    EXPECT_FALSE(cfg.core.mmu.ptw.scheduling);
    EXPECT_TRUE(cfg.l2tlb.enabled);
    EXPECT_EQ(cfg.l2tlb.entries, 2048u);
    EXPECT_EQ(cfg.l2tlb.ports, 4u);
    EXPECT_TRUE(cfg.largePages);
    EXPECT_EQ(cfg.name, "dse-tlb256e8w2p-pwc0-l22048e4p-w2-2m");
    // l2tlb disabled when the entry knob is 0.
    DseKnobs k0 = k;
    k0.l2tlbEntries = 0;
    EXPECT_FALSE(makeDseConfig(k0, 6).l2tlb.enabled);
}

TEST(Cost, AreaIsMonotoneInEveryKnob)
{
    const DseCostModel cost;
    DseKnobs k; // 128e/4w/4p, pwc16, no l2, 1 walker, 4k
    const double base = cost.area(k, 8);
    EXPECT_GT(base, 0.0);

    auto bump = [&cost, &k](auto mutate) {
        DseKnobs m = k;
        mutate(m);
        return cost.area(m, 8);
    };
    EXPECT_GT(bump([](DseKnobs &m) { m.tlbEntries = 256; }), base);
    EXPECT_GT(bump([](DseKnobs &m) { m.tlbPorts = 8; }), base);
    EXPECT_GT(bump([](DseKnobs &m) { m.pwcLines = 64; }), base);
    EXPECT_GT(bump([](DseKnobs &m) { m.l2tlbEntries = 4096; }), base);
    EXPECT_GT(bump([](DseKnobs &m) { m.walkers = 4; }), base);
    // Scheduled walking costs more than one walker (the queue), less
    // than four.
    const double sched =
        bump([](DseKnobs &m) { m.walkSched = true; });
    EXPECT_GT(sched, base);
    EXPECT_LT(sched, bump([](DseKnobs &m) { m.walkers = 4; }));
    // Per-core structures scale with the core count; the shared L2
    // is counted once.
    EXPECT_DOUBLE_EQ(cost.area(k, 16), 2.0 * cost.area(k, 8));
    DseKnobs l2 = k;
    l2.l2tlbEntries = 4096;
    EXPECT_LT(cost.area(l2, 16) - cost.area(l2, 8),
              cost.area(l2, 8));
}

TEST(Dse, FreshAndResumedSweepsAreByteIdentical)
{
    const DseGrid grid = tinyGrid();
    const DseOptions opt = tinyOptions();

    const DseResult fresh = runDse(grid, opt);
    EXPECT_EQ(fresh.simulated, 8u);
    EXPECT_EQ(fresh.reused, 0u);
    ASSERT_EQ(fresh.points.size(), 8u);
    EXPECT_FALSE(fresh.frontier.empty());
    const std::string fresh_json = emitDseJson(fresh);

    // Points sorted by key; every frontier index flagged.
    for (std::size_t i = 1; i < fresh.points.size(); ++i)
        EXPECT_LT(fresh.points[i - 1].key, fresh.points[i].key);
    for (std::size_t idx : fresh.frontier)
        EXPECT_TRUE(fresh.points[idx].pareto);

    // Resume from the emitted JSON: zero simulations, identical
    // bytes — the acceptance contract of the resumable sweep.
    std::map<std::string, DsePointMetrics> cache;
    std::string err;
    ASSERT_TRUE(loadDseCache(fresh_json, cache, &err)) << err;
    EXPECT_EQ(cache.size(), 8u);
    const DseResult resumed = runDse(grid, opt, cache);
    EXPECT_EQ(resumed.simulated, 0u);
    EXPECT_EQ(resumed.reused, 8u);
    EXPECT_EQ(emitDseJson(resumed), fresh_json);

    // A partial cache simulates exactly the missing points and still
    // converges to the same bytes.
    std::map<std::string, DsePointMetrics> partial(cache);
    partial.erase(partial.begin());
    partial.erase(partial.begin());
    const DseResult half = runDse(grid, opt, partial);
    EXPECT_EQ(half.simulated, 2u);
    EXPECT_EQ(half.reused, 6u);
    EXPECT_EQ(emitDseJson(half), fresh_json);

    // The emitted payload validates against its own schema.
    const DseValidation val = validateDseJson(fresh_json);
    EXPECT_TRUE(val.ok()) << (val.errors.empty()
                                  ? ""
                                  : val.errors.front());
}

TEST(Dse, CacheLoaderRejectsCorruption)
{
    std::map<std::string, DsePointMetrics> cache;
    std::string err;
    EXPECT_FALSE(loadDseCache("not json", cache, &err));
    EXPECT_FALSE(loadDseCache("[]", cache, &err));
    EXPECT_FALSE(loadDseCache("{\"points\":[]}", cache, &err));
    // Future schema versions are rejected loudly.
    EXPECT_FALSE(loadDseCache(
        "{\"schema_version\":999,\"points\":[]}", cache, &err));
    EXPECT_NE(err.find("schema_version"), std::string::npos);
    // A key repeated with conflicting metrics must not resume.
    const char *conflict =
        "{\"schema_version\":1,\"points\":["
        "{\"key\":\"0123456789abcdef\",\"cycles\":10,"
        "\"instructions\":1,\"tlb_accesses\":1,\"tlb_hits\":1,"
        "\"walk_refs_issued\":1,\"avg_tlb_miss_latency\":1.5},"
        "{\"key\":\"0123456789abcdef\",\"cycles\":20,"
        "\"instructions\":1,\"tlb_accesses\":1,\"tlb_hits\":1,"
        "\"walk_refs_issued\":1,\"avg_tlb_miss_latency\":1.5}]}";
    EXPECT_FALSE(loadDseCache(conflict, cache, &err));
    EXPECT_NE(err.find("conflicting"), std::string::npos);
    // The same repeat with identical metrics is a legal duplicate.
    const char *dup =
        "{\"schema_version\":1,\"points\":["
        "{\"key\":\"0123456789abcdef\",\"cycles\":10,"
        "\"instructions\":1,\"tlb_accesses\":1,\"tlb_hits\":1,"
        "\"walk_refs_issued\":1,\"avg_tlb_miss_latency\":1.5},"
        "{\"key\":\"0123456789abcdef\",\"cycles\":10,"
        "\"instructions\":1,\"tlb_accesses\":1,\"tlb_hits\":1,"
        "\"walk_refs_issued\":1,\"avg_tlb_miss_latency\":1.5}]}";
    EXPECT_TRUE(loadDseCache(dup, cache, &err)) << err;
    EXPECT_EQ(cache.size(), 1u);
    // A count of 2^64 or more has no uint64_t value: it is a
    // malformed metric, not a wrapped count.
    const std::string one =
        "{\"schema_version\":1,\"points\":["
        "{\"key\":\"0123456789abcdef\",\"cycles\":10,"
        "\"instructions\":1,\"tlb_accesses\":1,\"tlb_hits\":1,"
        "\"walk_refs_issued\":1,\"avg_tlb_miss_latency\":1.5}]}";
    auto with = [&](const std::string &from, const std::string &to) {
        std::string s = one;
        return s.replace(s.find(from), from.size(), to);
    };
    for (const std::string &bad :
         {with("\"tlb_hits\":1,", "\"tlb_hits\":1e30,"),
          with("\"cycles\":10,", "\"cycles\":1e30,"),
          with("\"cycles\":10,", "\"cycles\":18446744073709551616,")}) {
        EXPECT_FALSE(loadDseCache(bad, cache, &err)) << bad;
        EXPECT_NE(err.find("malformed metric"), std::string::npos)
            << err;
    }
    // The largest double below 2^64 still loads exactly.
    ASSERT_TRUE(loadDseCache(
        with("\"tlb_hits\":1,", "\"tlb_hits\":18446744073709549568,"),
        cache, &err))
        << err;
    EXPECT_EQ(cache.begin()->second.tlbHits, 18446744073709549568u);
}

TEST(Dse, ValidatorCatchesSchemaViolations)
{
    EXPECT_FALSE(validateDseJson("not json").ok());
    EXPECT_FALSE(validateDseJson("{}").ok());
    // A structurally complete payload with an inconsistent pareto
    // flag: the frontier lists a key whose point says pareto=false.
    std::ostringstream os;
    os << "{\"schema_version\":1,\"generator\":\"dse_pareto\","
          "\"bench\":\"bfs\",\"seed\":1,\"scale\":0.02,\"cores\":4,"
          "\"grid\":\"g\",\"points\":[{\"key\":"
          "\"0123456789abcdef\",\"config\":\"c\",\"tlb_entries\":128,"
          "\"tlb_ways\":4,\"tlb_ports\":4,\"pwc_lines\":16,"
          "\"l2tlb_entries\":0,\"l2tlb_ports\":2,\"walkers\":1,"
          "\"walk_sched\":false,\"page_2m\":false,\"cycles\":100,"
          "\"instructions\":5,\"tlb_accesses\":3,\"tlb_hits\":2,"
          "\"walk_refs_issued\":1,\"avg_tlb_miss_latency\":2.5,"
          "\"area\":1.5,\"pareto\":false}],"
          "\"frontier\":[\"0123456789abcdef\"]}";
    const DseValidation v = validateDseJson(os.str());
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.errors.front().find("inconsistent"),
              std::string::npos);
    // Unknown frontier keys are caught.
    std::string missing = os.str();
    const std::string from = "\"frontier\":[\"0123456789abcdef\"]";
    missing.replace(missing.find(from), from.size(),
                    "\"frontier\":[\"ffffffffffffffff\"]");
    EXPECT_FALSE(validateDseJson(missing).ok());
}

TEST(Dse, HtmlReportRendersAndFlagsEmptySweeps)
{
    const DseResult result = runDse(tinyGrid(), tinyOptions());
    std::ostringstream os;
    EXPECT_TRUE(writeDseHtmlReport(os, result));
    const std::string body = os.str();
    EXPECT_NE(body.find("const DATA="), std::string::npos);
    EXPECT_NE(body.find("id=\"scatter\""), std::string::npos);
    EXPECT_NE(body.find("id=\"frontier\""), std::string::npos);
    EXPECT_NE(body.find("id=\"sens\""), std::string::npos);
    // Report regenerates byte-identically (it embeds the frontier
    // JSON, which is itself byte-stable).
    std::ostringstream os2;
    EXPECT_TRUE(writeDseHtmlReport(os2, result));
    EXPECT_EQ(body, os2.str());

    DseResult empty;
    empty.opt = tinyOptions();
    std::ostringstream os3;
    EXPECT_FALSE(writeDseHtmlReport(os3, empty));
    EXPECT_NE(os3.str().find("Empty sweep"), std::string::npos);
}

TEST(Dse, FrontierIsExactOverTheTinyGrid)
{
    // Cross-check the autotuner's frontier against brute force over
    // its own (area, cycles) scores.
    const DseResult r = runDse(tinyGrid(), tinyOptions());
    std::vector<ParetoPoint> pts;
    for (const DsePointResult &p : r.points) {
        pts.push_back(ParetoPoint{
            p.area, static_cast<double>(p.metrics.cycles)});
    }
    auto brute = bruteFrontier(pts);
    std::vector<std::size_t> got = r.frontier;
    std::sort(got.begin(), got.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(got, brute);
    // Every point carries positive scores.
    for (const DsePointResult &p : r.points) {
        EXPECT_GT(p.metrics.cycles, 0u);
        EXPECT_GT(p.area, 0.0);
    }
}
