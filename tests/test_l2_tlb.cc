/**
 * @file
 * Unit and integration tests for the shared second-level TLB: array
 * hit/miss, translation-MSHR merge and bypass, eviction and flush
 * reporting, cross-MMU miss coalescing, and the full-system
 * properties (armed checker on every workload, walker references
 * non-increasing with L2 capacity).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "mmu/l2_tlb.hh"
#include "mmu/mmu.hh"
#include "sim/event_queue.hh"
#include "vm/address_space.hh"
#include "vm/physical_memory.hh"

using namespace gpummu;

namespace {

struct L2TlbFixture : public ::testing::Test
{
    L2TlbFixture() : phys(1 << 20, false), as(phys)
    {
        region = as.mmap("data", 64 * kPageSize4K);
    }

    L2Tlb
    make(L2TlbConfig cfg = L2TlbConfig{})
    {
        cfg.enabled = true;
        return L2Tlb(cfg, as.pageTable(), eq, kPageShift4K);
    }

    Vpn
    vpn(unsigned page) const
    {
        return (region.base >> kPageShift4K) + page;
    }

    Ppn
    frameOf(unsigned page) const
    {
        return as.pageTable().translate(vpn(page))->ppn;
    }

    Translation
    xlat(unsigned page) const
    {
        return Translation{frameOf(page), false};
    }

    PhysicalMemory phys;
    AddressSpace as;
    EventQueue eq;
    VmRegion region;
};

} // namespace

TEST_F(L2TlbFixture, MissAllocatesMshrThenFillWakesAndHits)
{
    L2TlbConfig cfg;
    cfg.checkInvariants = true;
    auto l2 = make(cfg);

    int wakeups = 0;
    std::uint64_t got_frame = 0;
    auto res = l2.access(vpn(0), 100,
                         [&](Vpn, std::uint64_t f, bool, Cycle) {
                             ++wakeups;
                             got_frame = f;
                         });
    EXPECT_EQ(res.outcome, L2Tlb::Outcome::NeedWalk);
    EXPECT_EQ(res.ready, 100 + cfg.hitLatency);
    EXPECT_TRUE(l2.mshrActive(vpn(0)));
    EXPECT_FALSE(l2.probe(vpn(0)));

    l2.fill(vpn(0), xlat(0), 500);
    EXPECT_EQ(wakeups, 1);
    EXPECT_EQ(got_frame, frameOf(0));
    EXPECT_FALSE(l2.mshrActive(vpn(0)));
    EXPECT_TRUE(l2.probe(vpn(0)));

    // Resident now: a second access hits and schedules its callback
    // at the returned ready cycle.
    Cycle hit_at = 0;
    auto res2 = l2.access(vpn(0), 600,
                          [&](Vpn, std::uint64_t f, bool, Cycle c) {
                              EXPECT_EQ(f, frameOf(0));
                              hit_at = c;
                          });
    EXPECT_EQ(res2.outcome, L2Tlb::Outcome::Hit);
    eq.runUntil(1'000'000);
    EXPECT_EQ(hit_at, res2.ready);
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_EQ(l2.lookups(), 2u);
    ASSERT_NE(l2.checker(), nullptr);
    EXPECT_EQ(l2.checker()->fillsChecked(), 1u);
    EXPECT_EQ(l2.checker()->hitsChecked(), 1u);
    // alloc + wake, conservation balanced.
    EXPECT_EQ(l2.checker()->mshrEventsChecked(), 2u);
    l2.checkEndOfKernel();
}

TEST_F(L2TlbFixture, HitCallbackThatHitsAgainFiresEachWakeOnce)
{
    // A hit's wakeup frees its slot before running the callback, so a
    // callback that accesses the L2 again and hits takes that slot for
    // its own wakeup. Every wakeup still fires once, at its own ready
    // cycle, with its own translation.
    L2TlbConfig cfg;
    cfg.checkInvariants = true;
    auto l2 = make(cfg);
    for (unsigned page : {0u, 1u, 2u}) {
        l2.access(vpn(page), 0, [](Vpn, std::uint64_t, bool, Cycle) {});
        l2.fill(vpn(page), xlat(page), 50);
    }

    std::map<Vpn, std::vector<Cycle>> woken;
    std::map<Vpn, Cycle> expected;
    std::function<void(Vpn, std::uint64_t, bool, Cycle)> chain =
        [&](Vpn tag, std::uint64_t f, bool, Cycle c) {
            woken[tag].push_back(c);
            EXPECT_EQ(f, frameOf(static_cast<unsigned>(tag - vpn(0))));
            EXPECT_EQ(c, eq.now());
            if (tag == vpn(2))
                return;
            const auto res = l2.access(tag + 1, c, chain);
            EXPECT_EQ(res.outcome, L2Tlb::Outcome::Hit);
            expected[tag + 1] = res.ready;
        };
    const auto first = l2.access(vpn(0), 100, chain);
    ASSERT_EQ(first.outcome, L2Tlb::Outcome::Hit);
    expected[vpn(0)] = first.ready;
    // A second, independent hit in flight alongside the chain.
    const auto other = l2.access(vpn(2), 101, chain);
    ASSERT_EQ(other.outcome, L2Tlb::Outcome::Hit);
    eq.runUntil(1'000'000);

    EXPECT_EQ(woken[vpn(0)], (std::vector<Cycle>{first.ready}));
    EXPECT_EQ(woken[vpn(1)], (std::vector<Cycle>{expected[vpn(1)]}));
    EXPECT_EQ(woken[vpn(2)],
              (std::vector<Cycle>{other.ready, expected[vpn(2)]}));
    EXPECT_GT(expected[vpn(1)], first.ready);
    EXPECT_GT(expected[vpn(2)], expected[vpn(1)]);
    EXPECT_EQ(l2.hits(), 4u);
    l2.checkEndOfKernel();
}

TEST_F(L2TlbFixture, ConcurrentMissesMergeIntoOneMshr)
{
    L2TlbConfig cfg;
    cfg.checkInvariants = true;
    auto l2 = make(cfg);

    int wakeups = 0;
    Cycle woken_at = 0;
    auto on_wake = [&](Vpn, std::uint64_t f, bool, Cycle c) {
        EXPECT_EQ(f, frameOf(3));
        ++wakeups;
        woken_at = c;
    };
    EXPECT_EQ(l2.access(vpn(3), 10, on_wake).outcome,
              L2Tlb::Outcome::NeedWalk);
    EXPECT_EQ(l2.access(vpn(3), 11, on_wake).outcome,
              L2Tlb::Outcome::Merged);
    EXPECT_EQ(l2.access(vpn(3), 12, on_wake).outcome,
              L2Tlb::Outcome::Merged);
    EXPECT_EQ(l2.mshrsInUse(), 1u);
    EXPECT_EQ(l2.mshrMerges(), 2u);

    // One fill wakes all three waiters at the walk's finish cycle.
    l2.fill(vpn(3), xlat(3), 400);
    EXPECT_EQ(wakeups, 3);
    EXPECT_EQ(woken_at, 400u);
    EXPECT_EQ(l2.mshrsInUse(), 0u);
    // 1 alloc + 2 merges + 3 wakeups.
    EXPECT_EQ(l2.checker()->mshrEventsChecked(), 6u);
    l2.checkEndOfKernel();
}

TEST_F(L2TlbFixture, FullMshrFileBypasses)
{
    L2TlbConfig cfg;
    cfg.mshrs = 1;
    auto l2 = make(cfg);

    auto nop = [](Vpn, std::uint64_t, bool, Cycle) {};
    EXPECT_EQ(l2.access(vpn(0), 0, nop).outcome,
              L2Tlb::Outcome::NeedWalk);
    // Distinct VPN with the single MSHR taken: structural bypass.
    EXPECT_EQ(l2.access(vpn(1), 0, nop).outcome,
              L2Tlb::Outcome::Bypass);
    EXPECT_EQ(l2.mshrBypasses(), 1u);
    // Same VPN still merges - an MSHR exists for it.
    EXPECT_EQ(l2.access(vpn(0), 1, nop).outcome,
              L2Tlb::Outcome::Merged);

    // The bypass walk still installs its result for later hitters.
    l2.fillBypass(vpn(1), xlat(1), 300);
    EXPECT_TRUE(l2.probe(vpn(1)));
    EXPECT_EQ(l2.access(vpn(1), 400, nop).outcome,
              L2Tlb::Outcome::Hit);

    // Race pin: a second VPN bypasses while the file is full, the
    // MSHR then frees and ANOTHER core allocates one for that same
    // VPN before the bypass walk lands. fillBypass must install
    // without disturbing the younger MSHR; its own fill still wakes
    // its waiter exactly once.
    EXPECT_EQ(l2.access(vpn(2), 410, nop).outcome,
              L2Tlb::Outcome::Bypass);
    l2.fill(vpn(0), xlat(0), 500); // frees the single MSHR
    int late_wakes = 0;
    EXPECT_EQ(l2.access(vpn(2), 510,
                        [&](Vpn, std::uint64_t, bool, Cycle) {
                            ++late_wakes;
                        })
                  .outcome,
              L2Tlb::Outcome::NeedWalk);
    l2.fillBypass(vpn(2), xlat(2), 600); // the old bypass walk lands
    EXPECT_EQ(late_wakes, 0);
    EXPECT_TRUE(l2.mshrActive(vpn(2)));
    l2.fill(vpn(2), xlat(2), 700);
    EXPECT_EQ(late_wakes, 1);
    eq.runUntil(1'000'000);
}

TEST_F(L2TlbFixture, CapacityEvictionReportsVictim)
{
    L2TlbConfig cfg;
    cfg.entries = 2;
    cfg.ways = 2;
    auto l2 = make(cfg);
    std::vector<Vpn> evicted;
    l2.setEvictionListener([&](Vpn v) { evicted.push_back(v); });

    auto nop = [](Vpn, std::uint64_t, bool, Cycle) {};
    for (unsigned p = 0; p < 3; ++p) {
        l2.access(vpn(p), p, nop);
        l2.fill(vpn(p), xlat(p), 100 + p);
    }
    eq.runUntil(1'000'000);
    // Three fills into two entries: the LRU (first) fill is evicted.
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], vpn(0));
    EXPECT_EQ(l2.evictions(), 1u);
}

TEST_F(L2TlbFixture, FlushReportsEveryResidentEntry)
{
    auto l2 = make();
    std::vector<Vpn> evicted;
    l2.setEvictionListener([&](Vpn v) { evicted.push_back(v); });

    auto nop = [](Vpn, std::uint64_t, bool, Cycle) {};
    for (unsigned p = 0; p < 4; ++p) {
        l2.access(vpn(p), p, nop);
        l2.fill(vpn(p), xlat(p), 50 + p);
    }
    eq.runUntil(1'000'000);
    EXPECT_TRUE(evicted.empty());

    l2.flush();
    EXPECT_EQ(evicted.size(), 4u);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_FALSE(l2.probe(vpn(p)));
    EXPECT_EQ(l2.flushes(), 1u);
}

TEST_F(L2TlbFixture, PortContentionSerializesLookups)
{
    L2TlbConfig cfg;
    cfg.ports = 1;
    cfg.lookupInterval = 4;
    auto l2 = make(cfg);
    auto nop = [](Vpn, std::uint64_t, bool, Cycle) {};
    // Two same-cycle lookups on one port: the second starts one
    // lookupInterval later.
    auto r1 = l2.access(vpn(0), 100, nop);
    auto r2 = l2.access(vpn(1), 100, nop);
    EXPECT_EQ(r1.ready, 100 + cfg.hitLatency);
    EXPECT_EQ(r2.ready, 100 + cfg.lookupInterval + cfg.hitLatency);
    l2.fill(vpn(0), xlat(0), 200);
    l2.fill(vpn(1), xlat(1), 201);
}

TEST_F(L2TlbFixture, CrossMmuMissesMergeIntoOneWalk)
{
    // Two cores' MMUs share one L2: core B misses on the page core A
    // is already walking, merges into A's MSHR, and never touches its
    // own walker pool - yet both cores' L1 TLBs get filled.
    MemorySystem mem((MemorySystemConfig()));
    L2TlbConfig l2cfg;
    l2cfg.enabled = true;
    l2cfg.checkInvariants = true;
    L2Tlb l2(l2cfg, as.pageTable(), eq, kPageShift4K);

    MmuConfig mcfg;
    mcfg.hitUnderMiss = true;
    Mmu mmu_a(mcfg, as, mem, eq);
    Mmu mmu_b(mcfg, as, mem, eq);
    mmu_a.setL2Tlb(&l2);
    mmu_b.setL2Tlb(&l2);

    int done_a = 0, done_b = 0;
    Cycle fin_a = 0, fin_b = 0;
    mmu_a.requestWalks({vpn(7)}, 0, 0,
                       [&](Vpn, std::uint64_t f, Cycle c) {
                           EXPECT_EQ(f, frameOf(7));
                           ++done_a;
                           fin_a = c;
                       });
    mmu_b.requestWalks({vpn(7)}, 0, 1,
                       [&](Vpn, std::uint64_t f, Cycle c) {
                           EXPECT_EQ(f, frameOf(7));
                           ++done_b;
                           fin_b = c;
                       });
    eq.runUntil(10'000'000);

    EXPECT_EQ(done_a, 1);
    EXPECT_EQ(done_b, 1);
    EXPECT_EQ(fin_a, fin_b); // one walk completed both
    EXPECT_EQ(l2.mshrMerges(), 1u);
    // Only core A's walkers ever walked.
    EXPECT_EQ(mmu_a.walkers().walksCompleted(), 1u);
    EXPECT_EQ(mmu_b.walkers().walksCompleted(), 0u);
    EXPECT_EQ(mmu_b.walkers().refsIssued(), 0u);
    // Both L1 TLBs were filled by the shared completion.
    EXPECT_TRUE(mmu_a.tlb().probe(vpn(7)));
    EXPECT_TRUE(mmu_b.tlb().probe(vpn(7)));

    // A later miss on either core hits the shared array.
    int hits = 0;
    mmu_b.requestWalks({vpn(7)}, 0, eq.now() + 1,
                       [&](Vpn, std::uint64_t, Cycle) { ++hits; });
    eq.runUntil(20'000'000);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_EQ(mmu_b.l2Satisfied(), 2u); // merge + hit

    l2.checkEndOfKernel();
    mmu_a.checkEndOfKernel();
    mmu_b.checkEndOfKernel();
}

TEST_F(L2TlbFixture, OneBatchTakesEveryL2Outcome)
{
    // One miss batch on core A whose four tags take the four L2
    // outcomes: a hit, a merge into core B's MSHR, a walk behind the
    // file's last free MSHR, and a bypass once the file is full. Two
    // MSHRs is the smallest file that holds B's and A's own at once.
    MemorySystem mem((MemorySystemConfig()));
    L2TlbConfig l2cfg;
    l2cfg.enabled = true;
    l2cfg.mshrs = 2;
    l2cfg.checkInvariants = true;
    L2Tlb l2(l2cfg, as.pageTable(), eq, kPageShift4K);

    MmuConfig mcfg;
    mcfg.hitUnderMiss = true;
    mcfg.checkInvariants = true;
    Mmu mmu_a(mcfg, as, mem, eq);
    Mmu mmu_b(mcfg, as, mem, eq);
    Mmu mmu_c(mcfg, as, mem, eq);
    for (Mmu *m : {&mmu_a, &mmu_b, &mmu_c})
        m->setL2Tlb(&l2);

    const Vpn hit = vpn(1), merge = vpn(2), walk = vpn(3),
              bypass = vpn(4);
    l2.fillBypass(hit, xlat(1), 0);

    int done_b = 0;
    mmu_b.requestWalks({merge}, 0, 0,
                       [&](Vpn, std::uint64_t, Cycle) { ++done_b; });
    ASSERT_EQ(l2.mshrsInUse(), 1u);

    // Core C misses on the bypassed page as soon as A's own walk frees
    // an MSHR. A's single walker serves the bypass walk after that
    // one, so the bypass walk is still in flight.
    int done_c = 0;
    std::map<Vpn, int> done_a;
    mmu_a.requestWalks(
        {hit, merge, walk, bypass}, 0, 1,
        [&](Vpn v, std::uint64_t f, Cycle c) {
            EXPECT_EQ(f, as.pageTable().translate(v)->ppn);
            ++done_a[v];
            if (v == walk) {
                mmu_c.requestWalks(
                    {bypass}, 0, c,
                    [&](Vpn, std::uint64_t, Cycle) { ++done_c; });
                EXPECT_TRUE(l2.mshrActive(bypass));
            }
            if (v == bypass) {
                // The bypass fill installs but leaves C's MSHR live.
                EXPECT_TRUE(l2.probe(bypass));
                EXPECT_TRUE(l2.mshrActive(bypass));
                EXPECT_EQ(done_c, 0);
            }
        });
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_EQ(l2.mshrMerges(), 1u);
    EXPECT_EQ(l2.mshrBypasses(), 1u);
    EXPECT_EQ(l2.mshrsInUse(), 2u);

    int drains = 0;
    mmu_a.setDrainListener([&] {
        ++drains;
        EXPECT_EQ(done_a.size(), 4u);
    });
    eq.runUntil(10'000'000);

    for (Vpn v : {hit, merge, walk, bypass})
        EXPECT_EQ(done_a[v], 1) << "tag " << v;
    EXPECT_EQ(done_a.size(), 4u);
    EXPECT_EQ(drains, 1);
    EXPECT_EQ(done_b, 1);
    EXPECT_EQ(done_c, 1);
    EXPECT_FALSE(mmu_a.missOutstanding());
    EXPECT_EQ(mmu_a.l2Satisfied(), 2u); // hit + merge
    EXPECT_EQ(mmu_a.walkers().walksCompleted(), 2u);
    EXPECT_EQ(l2.mshrsInUse(), 0u);

    l2.checkEndOfKernel();
    for (Mmu *m : {&mmu_a, &mmu_b, &mmu_c})
        m->checkEndOfKernel();
}

namespace {

WorkloadParams
tinyParams(double scale = 0.02)
{
    WorkloadParams p;
    p.scale = scale;
    p.seed = 42;
    return p;
}

SystemConfig
shrink(SystemConfig cfg, unsigned cores = 4)
{
    cfg.numCores = cores;
    return cfg;
}

} // namespace

TEST(L2TlbSystem, ArmedCheckerPassesOnAllSixWorkloads)
{
    // Full-system sanity with the differential checker armed on the
    // per-core MMUs *and* the shared L2: every fill re-derived from
    // the reference translator, MSHR conservation at kernel end.
    Experiment exp(tinyParams());
    SystemConfig cfg = shrink(
        presets::withSharedL2Tlb(presets::augmentedTlb(), 512, 2));
    cfg.checkInvariants = true;
    for (BenchmarkId id : allBenchmarks()) {
        const auto s = exp.run(id, cfg);
        EXPECT_GT(s.cycles, 0u) << benchmarkName(id);
    }
}

TEST(L2TlbSystem, WalkRefsNonIncreasingWithCapacity)
{
    // Every L2 hit or MSHR merge is a page walk that never reaches
    // the walkers, so growing the shared array cannot increase the
    // references the walkers issue.
    Experiment exp(tinyParams(0.03));
    const SystemConfig aug = shrink(presets::augmentedTlb(), 2);
    for (BenchmarkId id : {BenchmarkId::Bfs, BenchmarkId::Kmeans}) {
        std::uint64_t prev =
            exp.run(id, aug).walkRefsIssued;
        for (std::size_t entries : {64, 512, 4096}) {
            const auto cfg = shrink(
                presets::withSharedL2Tlb(aug, entries, 2), 2);
            const std::uint64_t refs =
                exp.run(id, cfg).walkRefsIssued;
            EXPECT_LE(refs, prev)
                << benchmarkName(id) << " @" << entries;
            prev = refs;
        }
    }
}

TEST(L2TlbSystem, DisabledConfigIsByteIdenticalToBaseline)
{
    // With l2tlb.enabled=false the rest of the L2 geometry must be
    // inert - the whole subsystem is pointer-gated like tracing, so
    // the run is byte-identical to one that never saw the fields.
    SystemConfig off = shrink(presets::augmentedTlb());
    off.l2tlb.enabled = false; // explicit: the default
    off.l2tlb.entries = 64;
    off.l2tlb.ports = 1;
    off.l2tlb.mshrs = 1;
    const RunOutput a =
        runConfigFull(BenchmarkId::Bfs, shrink(presets::augmentedTlb()),
                      tinyParams());
    const RunOutput b =
        runConfigFull(BenchmarkId::Bfs, off, tinyParams());
    EXPECT_EQ(a.statsJson, b.statsJson);
}
