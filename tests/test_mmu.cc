/**
 * @file
 * Unit tests for the per-core MMU facade.
 */

#include <gtest/gtest.h>

#include <csignal>

#include "mmu/mmu.hh"
#include "sim/event_queue.hh"

using namespace gpummu;

namespace {

struct MmuFixture : public ::testing::Test
{
    MmuFixture()
        : phys(1 << 20, false), as(phys), mem(MemorySystemConfig{})
    {
        region = as.mmap("data", 64 * kPageSize4K);
    }

    Mmu
    make(MmuConfig cfg = MmuConfig{})
    {
        return Mmu(cfg, as, mem, eq);
    }

    Vpn
    vpn(unsigned page) const
    {
        return (region.base >> kPageShift4K) + page;
    }

    PhysicalMemory phys;
    AddressSpace as;
    MemorySystem mem;
    EventQueue eq;
    VmRegion region;
};

} // namespace

TEST_F(MmuFixture, MagicTranslateMatchesPageTable)
{
    auto mmu = make();
    const VirtAddr va = region.base + 5 * kPageSize4K + 123;
    const PhysAddr pa = mmu.magicTranslate(va);
    const Ppn ppn = as.pageTable().translate(va >> 12)->ppn;
    EXPECT_EQ(pa, (ppn << 12) | 123u);
}

TEST_F(MmuFixture, LookupBatchReportsMissesAndPortCost)
{
    MmuConfig cfg;
    cfg.tlb.ports = 2;
    auto mmu = make(cfg);
    auto res = mmu.lookupBatch({vpn(0), vpn(1), vpn(2)}, 0);
    EXPECT_FALSE(res.allHit);
    EXPECT_EQ(res.lookups.size(), 3u);
    // 3 VPNs over 2 ports: one extra cycle beyond the free slot.
    EXPECT_EQ(res.extraCycles, 1u);
}

TEST_F(MmuFixture, OversizedTlbPaysCactiPenalty)
{
    MmuConfig cfg;
    cfg.tlb.entries = 512;
    cfg.tlb.ports = 4;
    auto mmu = make(cfg);
    auto res = mmu.lookupBatch({vpn(0)}, 0);
    EXPECT_EQ(res.extraCycles, CactiModel{}.sizePenalty(512));
}

TEST_F(MmuFixture, WalkFillsTlbAndFiresCallback)
{
    auto mmu = make();
    Vpn done_vpn = 0;
    std::uint64_t frame = ~0ULL;
    mmu.requestWalks({vpn(3)}, /*warp=*/2, 0,
                     [&](Vpn v, std::uint64_t f, Cycle) {
                         done_vpn = v;
                         frame = f;
                     });
    EXPECT_TRUE(mmu.missOutstanding());
    eq.runUntil(1'000'000);
    EXPECT_EQ(done_vpn, vpn(3));
    EXPECT_EQ(frame, as.pageTable().translate(vpn(3))->ppn);
    EXPECT_FALSE(mmu.missOutstanding());
    // The TLB now hits.
    auto res = mmu.lookupBatch({vpn(3)}, 2);
    EXPECT_TRUE(res.allHit);
    EXPECT_EQ(res.lookups[0].frameBase, frame);
}

TEST_F(MmuFixture, RequestWalksUnderAMissIsRejected)
{
    // No miss under a miss: a second batch while one is in flight is
    // a caller bug (canStartMisses() is false), even for the same
    // page - it is rejected, not merged.
    EXPECT_EXIT(
        {
            auto mmu = make();
            mmu.requestWalks({vpn(4)}, 0, 0,
                             [](Vpn, std::uint64_t, Cycle) {});
            ASSERT_FALSE(mmu.canStartMisses(1));
            mmu.requestWalks({vpn(4)}, 1, 0,
                             [](Vpn, std::uint64_t, Cycle) {});
        },
        ::testing::KilledBySignal(SIGABRT), "miss batch is in flight");
}

TEST_F(MmuFixture, BlockingPolicyGatesMemory)
{
    MmuConfig cfg;
    cfg.hitUnderMiss = false;
    auto mmu = make(cfg);
    EXPECT_TRUE(mmu.memAvailable());
    mmu.requestWalks({vpn(5)}, 0, 0,
                     [](Vpn, std::uint64_t, Cycle) {});
    EXPECT_FALSE(mmu.memAvailable());
    EXPECT_FALSE(mmu.canStartMisses(1));
    eq.runUntil(1'000'000);
    EXPECT_TRUE(mmu.memAvailable());
}

TEST_F(MmuFixture, HitUnderMissKeepsTlbAvailable)
{
    MmuConfig cfg;
    cfg.hitUnderMiss = true;
    auto mmu = make(cfg);
    mmu.requestWalks({vpn(6)}, 0, 0,
                     [](Vpn, std::uint64_t, Cycle) {});
    EXPECT_TRUE(mmu.memAvailable());
    // But no miss-under-miss.
    EXPECT_FALSE(mmu.canStartMisses(1));
    // Drain before teardown: the pending walk's events refer into
    // this Mmu's walker slots, and the fixture's queue outlives it.
    eq.runUntil(1'000'000);
}

TEST_F(MmuFixture, MshrLimitBoundsMissSet)
{
    MmuConfig cfg;
    cfg.mshrs = 4;
    auto mmu = make(cfg);
    EXPECT_TRUE(mmu.canStartMisses(4));
    EXPECT_FALSE(mmu.canStartMisses(5));
}

TEST_F(MmuFixture, DrainListenerFiresOnLastWalk)
{
    auto mmu = make();
    int drained = 0;
    mmu.requestWalks({vpn(7), vpn(8)}, 0, 0,
                     [](Vpn, std::uint64_t, Cycle) {});
    mmu.setDrainListener([&] { ++drained; });
    EXPECT_EQ(drained, 0);
    eq.runUntil(1'000'000);
    // Once per retired batch, not once per walk.
    EXPECT_EQ(drained, 1);
}

TEST_F(MmuFixture, MissLatencyRecorded)
{
    auto mmu = make();
    mmu.requestWalks({vpn(9)}, 0, 100,
                     [](Vpn, std::uint64_t, Cycle) {});
    eq.runUntil(1'000'000);
    EXPECT_EQ(mmu.missLatency().count(), 1u);
    EXPECT_GT(mmu.missLatency().mean(), 0.0);
}

TEST_F(MmuFixture, ShootdownFlushesTlb)
{
    auto mmu = make();
    mmu.requestWalks({vpn(1)}, 0, 0,
                     [](Vpn, std::uint64_t, Cycle) {});
    eq.runUntil(1'000'000);
    EXPECT_TRUE(mmu.lookupBatch({vpn(1)}, 0).allHit);
    mmu.shootdown();
    EXPECT_FALSE(mmu.lookupBatch({vpn(1)}, 0).allHit);
}

TEST_F(MmuFixture, PhysAddrComposition)
{
    auto mmu = make();
    EXPECT_EQ(mmu.pageShift(), kPageShift4K);
    EXPECT_EQ(mmu.physAddr(7, 0x1234), (7ULL << 12) | 0x234u);
}

TEST(MmuLargePages, TwoMegTagsAndFrames)
{
    PhysicalMemory phys(1 << 22, false);
    AddressSpace as(phys, /*use_large=*/true);
    auto region = as.mmap("big", 4 * kPageSize2M);
    MemorySystem mem((MemorySystemConfig()));
    EventQueue eq;
    Mmu mmu((MmuConfig()), as, mem, eq);

    EXPECT_EQ(mmu.pageShift(), kPageShift2M);
    const Vpn tag = region.base >> kPageShift2M;
    Vpn done = 0;
    std::uint64_t frame = 0;
    mmu.requestWalks({tag + 1}, 0, 0,
                     [&](Vpn v, std::uint64_t f, Cycle) {
                         done = v;
                         frame = f;
                     });
    eq.runUntil(1'000'000);
    EXPECT_EQ(done, tag + 1);
    auto res = mmu.lookupBatch({tag + 1}, 0);
    ASSERT_TRUE(res.allHit);
    // Frame base back to a byte address must match the page table.
    const VirtAddr va = region.base + kPageSize2M + 0x555;
    const PhysAddr pa = mmu.physAddr(res.lookups[0].frameBase, va);
    EXPECT_EQ(pa, mmu.magicTranslate(va));
    (void)frame;
}
