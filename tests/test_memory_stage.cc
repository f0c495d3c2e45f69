/**
 * @file
 * Unit tests for the shader core memory stage: translation policies,
 * overlap behaviour and scheduler notifications.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "gpu/memory_stage.hh"
#include "mmu/iommu.hh"
#include "sched/warp_scheduler.hh"
#include "trace/trace.hh"

using namespace gpummu;

namespace {

struct RecordingScheduler : public WarpScheduler
{
    WarpOrder order(std::uint64_t ready) override { return {ready, 0}; }
    void consumed(int) override {}
    void
    onTlbHit(int w, Vpn, unsigned) override
    {
        ++tlbHits;
        lastWarp = w;
    }
    void onTlbMiss(int, Vpn) override { ++tlbMisses; }
    void onL1Miss(int, PhysAddr, bool tlb) override
    {
        ++l1Misses;
        l1MissWithTlbMiss += tlb;
    }
    int tlbHits = 0;
    int tlbMisses = 0;
    int l1Misses = 0;
    int l1MissWithTlbMiss = 0;
    int lastWarp = -1;
};

struct StageFixture : public ::testing::Test
{
    StageFixture()
        : phys(1 << 20, false), as(phys), mem(MemorySystemConfig{})
    {
        region = as.mmap("d", 256 * kPageSize4K);
    }

    VirtAddr
    addr(unsigned page, unsigned off = 0) const
    {
        return region.base + page * kPageSize4K + off;
    }

    PhysicalMemory phys;
    AddressSpace as;
    MemorySystem mem;
    EventQueue eq;
    VmRegion region;
};

} // namespace

TEST_F(StageFixture, NoTlbPathCompletesSynchronously)
{
    MmuConfig mc;
    mc.enabled = false;
    Mmu mmu(mc, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);

    Cycle done = 0;
    auto res = stage.issue(0, false, {addr(0), addr(0, 4)}, 0,
                           [&](Cycle c) { done = c; });
    EXPECT_EQ(res, MemIssueResult::Issued);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(stage.memInstructions(), 1u);
    EXPECT_EQ(stage.pageDivergence().max(), 1u);
}

TEST_F(StageFixture, MissWaitsForWalkThenCompletes)
{
    Mmu mmu(MmuConfig{}, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);
    RecordingScheduler sched;
    stage.setScheduler(&sched);

    Cycle done = 0;
    stage.issue(1, false, {addr(3)}, 0, [&](Cycle c) { done = c; });
    EXPECT_EQ(done, 0u); // async: waiting on the walk
    eq.runUntil(1'000'000);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(sched.tlbMisses, 1);

    // Second access hits the TLB and completes synchronously.
    Cycle done2 = 0;
    stage.issue(1, false, {addr(3)}, done,
                [&](Cycle c) { done2 = c; });
    EXPECT_GT(done2, 0u);
    EXPECT_EQ(sched.tlbHits, 1);
}

TEST_F(StageFixture, HitUnderMissBouncesWouldMissWarp)
{
    MmuConfig mc;
    mc.hitUnderMiss = true;
    Mmu mmu(mc, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);

    // Warm page 0 in the TLB.
    Cycle warm = 0;
    stage.issue(0, false, {addr(0)}, 0, [&](Cycle c) { warm = c; });
    eq.runUntil(1'000'000);

    // Warp 1 misses on page 5: walk starts.
    Cycle w1 = 0;
    const Cycle t = eq.now();
    stage.issue(1, false, {addr(5)}, t, [&](Cycle c) { w1 = c; });
    ASSERT_TRUE(mmu.missOutstanding());

    // Warp 2 would miss on page 6: bounced.
    auto res = stage.issue(2, false, {addr(6)}, t + 1,
                           [](Cycle) { FAIL(); });
    EXPECT_EQ(res, MemIssueResult::BlockedTlbBusy);
    EXPECT_EQ(stage.tlbBusyBounces(), 1u);

    // Warp 3 all-hit on page 0: proceeds under the miss.
    Cycle w3 = 0;
    auto res3 = stage.issue(3, false, {addr(0)}, t + 2,
                            [&](Cycle c) { w3 = c; });
    EXPECT_EQ(res3, MemIssueResult::Issued);
    eq.runUntil(10'000'000);
    EXPECT_GT(w1, 0u);
    EXPECT_GT(w3, 0u);
}

/** A hit-under-miss stage with pages 0 (and, if asked, 6) resident
 *  in the TLB and a walk for page 5 outstanding. */
struct BounceFixture : public StageFixture
{
    explicit BounceFixture(bool warm_b = false)
        : mmu(humConfig(), as, mem, eq), l1(L1CacheConfig{}, mem),
          stage(mmu, l1, eq)
    {
        stage.setScheduler(&sched);
        warm(0);
        if (warm_b)
            warm(6);
        stage.issue(1, false, {addr(5)}, eq.now(), [](Cycle) {});
    }

    // Walk callbacks hold the stage's pending descriptors: drain them.
    ~BounceFixture() override { eq.runUntil(eq.now() + 10'000'000); }

    static MmuConfig
    humConfig()
    {
        MmuConfig mc;
        mc.hitUnderMiss = true;
        return mc;
    }

    void
    warm(unsigned page)
    {
        stage.issue(0, false, {addr(page)}, eq.now(), [](Cycle) {});
        eq.runUntil(eq.now() + 1'000'000);
    }

    /** Lanes A, B, A: page 0, page 6, then page 0 on another line. */
    std::vector<VirtAddr>
    lanesAba() const
    {
        return {addr(0), addr(6), addr(0, 128)};
    }

    Mmu mmu;
    L1Cache l1;
    MemoryStage stage;
    RecordingScheduler sched;
};

struct BounceMissFixture : public BounceFixture
{
    BounceMissFixture() : BounceFixture(false) {}
};

struct BounceHitFixture : public BounceFixture
{
    BounceHitFixture() : BounceFixture(true) {}
};

TEST_F(BounceMissFixture, LaterLaneOnAMissingPageBounces)
{
    ASSERT_TRUE(mmu.missOutstanding());
    const auto instrs = stage.memInstructions();
    const auto bounces = stage.tlbBusyBounces();
    const int misses = sched.tlbMisses;

    auto res = stage.issue(2, false, lanesAba(), eq.now(),
                           [](Cycle) { FAIL(); });
    EXPECT_EQ(res, MemIssueResult::BlockedTlbBusy);
    EXPECT_EQ(stage.tlbBusyBounces(), bounces + 1);
    EXPECT_EQ(stage.memInstructions(), instrs);
    EXPECT_EQ(sched.tlbMisses, misses);
}

TEST_F(BounceHitFixture, AllLanesResidentIssueUnderTheMiss)
{
    ASSERT_TRUE(mmu.missOutstanding());
    const auto instrs = stage.memInstructions();
    const auto samples = stage.pageDivergence().count();

    Cycle done = 0;
    auto res = stage.issue(2, false, lanesAba(), eq.now(),
                           [&](Cycle c) { done = c; });
    EXPECT_EQ(res, MemIssueResult::Issued);
    EXPECT_EQ(stage.tlbBusyBounces(), 0u);
    EXPECT_EQ(stage.memInstructions(), instrs + 1);
    ASSERT_EQ(stage.pageDivergence().count(), samples + 1);
    // Every earlier instruction touched one page.
    EXPECT_EQ(stage.pageDivergence().max(), 2u);
    eq.runUntil(eq.now() + 1'000'000);
    EXPECT_GT(done, 0u);
}

TEST_F(BounceMissFixture, TracedBounceRecordsTheFullCoalesce)
{
    TraceSink sink(64);
    stage.setTraceSink(&sink, 0);
    auto res = stage.issue(2, false, lanesAba(), eq.now(),
                           [](Cycle) { FAIL(); });
    ASSERT_EQ(res, MemIssueResult::BlockedTlbBusy);
    EXPECT_EQ(sink.recorded(TraceCat::Coalescer), 1u);
    std::ostringstream os;
    sink.writeChromeTrace(os);
    EXPECT_NE(os.str().find("\"args\":{\"lines\":3,\"pages\":2}"),
              std::string::npos)
        << os.str();
    stage.setTraceSink(nullptr, 0);
}

TEST_F(StageFixture, OverlapReleasesHitLinesEarly)
{
    // One warp accesses a TLB-hit page and a TLB-miss page. With
    // cacheOverlap the hit page's line is fetched during the walk, so
    // a second warp touching that line right after completion hits.
    MmuConfig mc;
    mc.hitUnderMiss = true;
    mc.cacheOverlap = true;
    Mmu mmu(mc, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);

    Cycle warm = 0;
    stage.issue(0, false, {addr(0)}, 0, [&](Cycle c) { warm = c; });
    eq.runUntil(1'000'000);
    const Cycle t = eq.now();

    Cycle done = 0;
    stage.issue(1, false, {addr(0, 64), addr(7)}, t,
                [&](Cycle c) { done = c; });
    // The hit line (page 0) was accessed at issue time, before the
    // walk for page 7 finished.
    const auto l1_before = l1.accesses();
    EXPECT_GT(l1_before, 0u);
    eq.runUntil(10'000'000);
    EXPECT_GT(done, t);
}

TEST_F(StageFixture, CompletionMayIssueTheNextMissOnTheSameStage)
{
    // The stage keeps one miss record, and the Mmu one miss batch. A
    // load's completion runs once both have retired, so it may issue
    // the next missing load on the same stage synchronously, with or
    // without cache overlap.
    for (bool overlap : {false, true}) {
        EventQueue q;
        MmuConfig mc;
        mc.hitUnderMiss = true;
        mc.cacheOverlap = overlap;
        Mmu mmu(mc, as, mem, q);
        L1Cache l1(L1CacheConfig{}, mem);
        MemoryStage stage(mmu, l1, q);

        const std::vector<VirtAddr> next = {addr(20, 128), addr(24),
                                            addr(25)};
        int first_calls = 0;
        int next_calls = 0;
        Cycle first_at = 0;
        Cycle next_done = 0;
        stage.issue(0, false, {addr(20), addr(21, 64)}, 0, [&](Cycle) {
            ++first_calls;
            first_at = q.now();
            EXPECT_FALSE(mmu.missOutstanding());
            EXPECT_EQ(stage.issue(1, false, next, q.now(),
                                  [&](Cycle c) {
                                      ++next_calls;
                                      next_done = c;
                                  }),
                      MemIssueResult::Issued);
            EXPECT_TRUE(mmu.missOutstanding());
        });
        q.runUntil(10'000'000);
        EXPECT_EQ(first_calls, 1) << "overlap " << overlap;
        EXPECT_EQ(next_calls, 1) << "overlap " << overlap;
        EXPECT_GT(next_done, first_at);
        EXPECT_FALSE(mmu.missOutstanding());
        // Both loads missed; the second's line on page 20 hit the TLB.
        EXPECT_EQ(mmu.walkers().walksCompleted(), 4u);
    }
}

TEST_F(StageFixture, StoresResolveAtTranslationNotData)
{
    Mmu mmu(MmuConfig{}, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);

    // Warm the page so translation hits.
    Cycle warm = 0;
    stage.issue(0, false, {addr(9)}, 0, [&](Cycle c) { warm = c; });
    eq.runUntil(1'000'000);
    const Cycle t = eq.now();
    Cycle done = 0;
    stage.issue(0, true, {addr(9, 128)}, t,
                [&](Cycle c) { done = c; });
    // Store completes at the TLB-hit handoff, far sooner than a
    // memory round trip.
    EXPECT_LE(done, t + 4);
}

TEST_F(StageFixture, TlbMissFlagPropagatesToL1MissHook)
{
    Mmu mmu(MmuConfig{}, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);
    RecordingScheduler sched;
    stage.setScheduler(&sched);

    Cycle done = 0;
    stage.issue(0, false, {addr(11)}, 0, [&](Cycle c) { done = c; });
    eq.runUntil(1'000'000);
    EXPECT_GT(sched.l1MissWithTlbMiss, 0);
}

TEST_F(StageFixture, PageDivergenceHistogram)
{
    MmuConfig mc;
    mc.enabled = false;
    Mmu mmu(mc, as, mem, eq);
    L1Cache l1(L1CacheConfig{}, mem);
    MemoryStage stage(mmu, l1, eq);

    std::vector<VirtAddr> lanes;
    for (unsigned p = 0; p < 5; ++p)
        lanes.push_back(addr(20 + p));
    Cycle done = 0;
    stage.issue(0, false, lanes, 0, [&](Cycle c) { done = c; });
    EXPECT_EQ(stage.pageDivergence().max(), 5u);
    EXPECT_DOUBLE_EQ(stage.pageDivergence().mean(), 5.0);
}

TEST(MemoryStageIommu, LegTakesTheRunsInterconnectAndL2Latency)
{
    // The IOMMU leg crosses the run's interconnect to the controller,
    // and the translated miss then refetches through the run's L2, so
    // both legs follow the memory system the core is built on.
    MemorySystemConfig mc;
    mc.icntLatency = 100;
    mc.l2HitLatency = 200;
    IommuConfig ic;
    ic.lookupLatency = 50;
    PhysicalMemory phys(1 << 20, false);
    AddressSpace as(phys);
    const VmRegion region = as.mmap("d", 16 * kPageSize4K);
    MemorySystem mem(mc);
    EventQueue eq;
    Iommu iommu(ic, as, mem, eq);

    MmuConfig off;
    off.enabled = false;
    Mmu mmu_a(off, as, mem, eq);
    Mmu mmu_b(off, as, mem, eq);
    L1Cache l1_a(L1CacheConfig{}, mem);
    L1Cache l1_b(L1CacheConfig{}, mem);
    MemoryStage a(mmu_a, l1_a, eq);
    MemoryStage b(mmu_b, l1_b, eq);
    a.setIommu(&iommu);
    b.setIommu(&iommu);

    // Core A's load warms the IOMMU TLB and the line in the L2.
    Cycle warm = 0;
    a.issue(0, false, {region.base}, 0, [&](Cycle c) { warm = c; });
    eq.runUntil(1'000'000);
    ASSERT_GT(warm, 0u);

    // Core B misses its own L1 on the same line: the data hits the L2
    // while the translation hits the IOMMU TLB, and the translation
    // leg (depart, lookup, return, refetch) is the longer one.
    const Cycle t = eq.now();
    Cycle done = 0;
    b.issue(0, false, {region.base}, t, [&](Cycle c) { done = c; });
    eq.runUntil(t + 1'000'000);
    EXPECT_EQ(done, t + mc.icntLatency + ic.lookupLatency +
                        mc.icntLatency + mc.l2HitLatency);
}

TEST(MemoryStageIommu, WarpsCompleteOutOfOrderFromTheirOwnRecords)
{
    // Each warp keeps its own IOMMU record. Warp 0's load waits for a
    // walk; warp 1's, issued after it, hits the IOMMU TLB and finishes
    // first. Warp 1 may issue again at once, but warp 0 may not while
    // its translation is pending.
    PhysicalMemory phys(1 << 20, false);
    AddressSpace as(phys);
    const VmRegion region = as.mmap("d", 16 * kPageSize4K);
    MemorySystem mem(MemorySystemConfig{});
    EventQueue eq;
    Iommu iommu(IommuConfig{}, as, mem, eq);
    MmuConfig off;
    off.enabled = false;
    Mmu mmu_a(off, as, mem, eq);
    Mmu mmu_b(off, as, mem, eq);
    L1Cache l1_a(L1CacheConfig{}, mem);
    L1Cache l1_b(L1CacheConfig{}, mem);
    MemoryStage a(mmu_a, l1_a, eq);
    MemoryStage b(mmu_b, l1_b, eq);
    a.setIommu(&iommu);
    b.setIommu(&iommu);
    const auto page = [&](unsigned p) {
        return region.base + p * kPageSize4K;
    };

    // Core B warms page 3's IOMMU entry.
    b.issue(0, false, {page(3)}, 0, [](Cycle) {});
    eq.runUntil(1'000'000);
    const Cycle t = eq.now();

    std::vector<std::pair<int, Cycle>> done;
    a.issue(0, false, {page(5)}, t,
            [&](Cycle c) { done.emplace_back(0, c); });
    a.issue(1, false, {page(3)}, t + 1,
            [&](Cycle c) { done.emplace_back(1, c); });
    ASSERT_EQ(done.size(), 1u) << "warp 1's translation hits at once";
    EXPECT_EQ(done[0].first, 1);

    // Warp 1's record is idle again; warp 0's is not.
    a.issue(1, false, {page(3)}, t + 2,
            [&](Cycle c) { done.emplace_back(1, c); });
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DEATH(a.issue(0, false, {page(7)}, t + 2, [](Cycle) {}),
                 "translates at the IOMMU");

    eq.runUntil(t + 1'000'000);
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[2].first, 0);
    EXPECT_GT(done[2].second, done[0].second);
    EXPECT_EQ(iommu.walkers().walksCompleted(), 2u);
}
