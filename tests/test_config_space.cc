/**
 * @file
 * Property sweep over the MMU configuration space: every sensible
 * combination of the paper's design knobs must run a small workload
 * to completion, deterministically, and never beat the no-TLB
 * baseline (translation is never free).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "core/experiment.hh"
#include "core/presets.hh"

using namespace gpummu;

namespace {

struct Knobs
{
    std::size_t entries;
    unsigned ports;
    bool hum;
    bool overlap;
    bool sched;
    unsigned walkers;
};

std::string
knobName(const Knobs &k)
{
    std::ostringstream os;
    os << 'e' << k.entries << 'p' << k.ports << (k.hum ? "H" : "")
       << (k.overlap ? "O" : "") << (k.sched ? "S" : "") << 'w'
       << k.walkers;
    return os.str();
}

} // namespace

class MmuConfigSpace : public ::testing::TestWithParam<Knobs>
{
};

TEST_P(MmuConfigSpace, RunsToCompletionAndNeverBeatsMagic)
{
    const Knobs k = GetParam();
    WorkloadParams p;
    p.scale = 0.02;
    p.seed = 5;

    SystemConfig cfg = presets::naiveTlb(k.ports);
    cfg.name = "sweep-" + knobName(k);
    cfg.numCores = 2;
    cfg.core.mmu.tlb.entries = k.entries;
    cfg.core.mmu.hitUnderMiss = k.hum;
    cfg.core.mmu.cacheOverlap = k.overlap;
    cfg.core.mmu.ptw.scheduling = k.sched;
    cfg.core.mmu.ptw.numWalkers = k.walkers;

    SystemConfig base = presets::noTlb();
    base.numCores = 2;

    const RunStats b = runConfig(BenchmarkId::Memcached, base, p);
    const RunStats s = runConfig(BenchmarkId::Memcached, cfg, p);
    ASSERT_GT(s.cycles, 0u);
    // Same amount of work regardless of the MMU design.
    EXPECT_EQ(s.instructions, b.instructions);
    // Address translation can only cost cycles (small tolerance for
    // contention-model perturbation).
    EXPECT_GE(s.cycles * 100, b.cycles * 95) << cfg.name;
    // And the run is deterministic.
    const RunStats again = runConfig(BenchmarkId::Memcached, cfg, p);
    EXPECT_EQ(s.cycles, again.cycles) << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(
    DesignPoints, MmuConfigSpace,
    ::testing::Values(
        Knobs{64, 3, false, false, false, 1},
        Knobs{128, 4, false, false, false, 1},
        Knobs{128, 4, true, false, false, 1},
        Knobs{128, 4, true, true, false, 1},
        Knobs{128, 4, true, true, true, 1},
        Knobs{128, 4, false, false, false, 4},
        Knobs{256, 8, true, true, true, 1},
        Knobs{512, 32, true, true, true, 1},
        Knobs{64, 1, false, false, false, 1},
        Knobs{128, 32, true, false, true, 1}),
    [](const ::testing::TestParamInfo<Knobs> &info) {
        return knobName(info.param);
    });

TEST(ConfigSpace, LargePagesComposeWithEveryMmuMode)
{
    WorkloadParams p;
    p.scale = 0.02;
    p.seed = 5;
    for (SystemConfig cfg :
         {presets::withLargePages(presets::naiveTlb(4)),
          presets::withLargePages(presets::augmentedTlb()),
          presets::withLargePages(presets::idealTlb())}) {
        cfg.numCores = 2;
        const RunStats s = runConfig(BenchmarkId::Bfs, cfg, p);
        EXPECT_GT(s.cycles, 0u) << cfg.name;
        EXPECT_GT(s.tlbAccesses, 0u) << cfg.name;
        // 2MB granularity collapses page divergence.
        EXPECT_LT(s.avgPageDivergence, 3.0) << cfg.name;
    }
}
