/**
 * @file
 * Unit tests for the per-core TLB.
 */

#include <gtest/gtest.h>

#include "mmu/tlb.hh"

using namespace gpummu;

TEST(Tlb, MissThenFillThenHit)
{
    Tlb tlb(TlbConfig{});
    EXPECT_FALSE(tlb.lookup(100, 0).hit);
    tlb.fill(100, Translation{42, false});
    auto res = tlb.lookup(100, 0);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(res.ppn, 42u);
    EXPECT_FALSE(res.isLarge);
}

TEST(Tlb, StatsCountAccessesAndHits)
{
    Tlb tlb(TlbConfig{});
    tlb.lookup(1, 0);
    tlb.fill(1, Translation{9, false});
    tlb.lookup(1, 0);
    tlb.lookup(2, 0);
    EXPECT_EQ(tlb.accesses(), 3u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, UnrecordedLookupSkipsStats)
{
    Tlb tlb(TlbConfig{});
    tlb.fill(1, Translation{9, false});
    tlb.lookup(1, 0, /*record=*/false);
    EXPECT_EQ(tlb.accesses(), 0u);
}

TEST(Tlb, UnrecordedLookupLeavesWarpHistoryUntouched)
{
    // record=false marks re-probes after a walk completes; they must
    // be invisible to the common page matrix, not just the stats.
    Tlb tlb(TlbConfig{});
    tlb.fill(7, Translation{1, false});
    tlb.lookup(7, 3);
    tlb.lookup(7, 8, /*record=*/false); // re-probe by warp 8
    auto res = tlb.lookup(7, 5);
    // The snapshot sees only the recorded access by warp 3.
    ASSERT_EQ(res.historyUsed, 1u);
    EXPECT_EQ(res.history[0], 3);
}

TEST(Tlb, RecordedLookupUpdatesWarpHistory)
{
    // The counterpart pin: with record=true (the default) the same
    // sequence does enter the history.
    Tlb tlb(TlbConfig{});
    tlb.fill(7, Translation{1, false});
    tlb.lookup(7, 3);
    tlb.lookup(7, 8);
    auto res = tlb.lookup(7, 5);
    ASSERT_EQ(res.historyUsed, 2u);
    EXPECT_EQ(res.history[0], 8);
    EXPECT_EQ(res.history[1], 3);
}

TEST(Tlb, FlushReportsEveryEntryToEvictionListener)
{
    // A shootdown flush discards entries exactly like capacity
    // evictions, so TCWS victim tagging must hear about each one
    // with its allocating warp.
    TlbConfig cfg;
    cfg.entries = 8;
    cfg.ways = 4;
    Tlb tlb(cfg);
    std::vector<std::pair<Vpn, int>> evicted;
    tlb.setEvictionListener(
        [&](Vpn v, int w) { evicted.emplace_back(v, w); });
    tlb.fill(1, Translation{10, false}, 5);
    tlb.fill(2, Translation{20, false}, 6);
    tlb.fill(3, Translation{30, true}, 7);
    tlb.flush();
    ASSERT_EQ(evicted.size(), 3u);
    for (const auto &[v, w] : evicted) {
        EXPECT_TRUE(v >= 1 && v <= 3);
        EXPECT_EQ(w, static_cast<int>(v) + 4);
        EXPECT_FALSE(tlb.probe(v));
    }
    // A second flush of the now-empty array reports nothing.
    tlb.flush();
    EXPECT_EQ(evicted.size(), 3u);
    EXPECT_EQ(tlb.flushes(), 2u);
}

TEST(Tlb, ProbeIsNonMutating)
{
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    Tlb tlb(cfg);
    tlb.fill(1, Translation{1, false});
    tlb.fill(2, Translation{2, false});
    tlb.fill(3, Translation{3, false});
    tlb.fill(4, Translation{4, false});
    EXPECT_TRUE(tlb.probe(1)); // must NOT promote 1
    tlb.fill(5, Translation{5, false});
    EXPECT_FALSE(tlb.probe(1)); // 1 was still LRU and got evicted
    EXPECT_EQ(tlb.accesses(), 0u);
}

TEST(Tlb, LruDepthVisibleToScheduler)
{
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    Tlb tlb(cfg);
    tlb.fill(10, Translation{0, false});
    tlb.fill(11, Translation{0, false});
    tlb.fill(12, Translation{0, false});
    EXPECT_EQ(tlb.lookup(10, 0).depth, 2u);
    EXPECT_EQ(tlb.lookup(10, 0).depth, 0u); // promoted by prior hit
}

TEST(Tlb, WarpHistoryRecordsRecentWarps)
{
    Tlb tlb(TlbConfig{});
    tlb.fill(7, Translation{1, false});
    tlb.lookup(7, 3);
    auto res = tlb.lookup(7, 5);
    // The snapshot predates this access: warp 3 only.
    ASSERT_EQ(res.historyUsed, 1u);
    EXPECT_EQ(res.history[0], 3);
    auto res2 = tlb.lookup(7, 9);
    ASSERT_EQ(res2.historyUsed, 2u);
    EXPECT_EQ(res2.history[0], 5);
    EXPECT_EQ(res2.history[1], 3);
}

TEST(Tlb, HistoryDoesNotDuplicateHead)
{
    Tlb tlb(TlbConfig{});
    tlb.fill(7, Translation{1, false});
    tlb.lookup(7, 3);
    tlb.lookup(7, 3);
    auto res = tlb.lookup(7, 4);
    EXPECT_EQ(res.historyUsed, 1u);
    EXPECT_EQ(res.history[0], 3);
}

TEST(Tlb, HistoryBoundedByConfig)
{
    TlbConfig cfg;
    cfg.historyLength = 2; // the paper's length
    Tlb tlb(cfg);
    tlb.fill(7, Translation{1, false});
    tlb.lookup(7, 1);
    tlb.lookup(7, 2);
    tlb.lookup(7, 3);
    auto res = tlb.lookup(7, 4);
    EXPECT_EQ(res.historyUsed, 2u);
    EXPECT_EQ(res.history[0], 3);
    EXPECT_EQ(res.history[1], 2);
}

TEST(Tlb, EvictionListenerReportsAllocWarp)
{
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    Tlb tlb(cfg);
    Vpn evicted = 0;
    int warp = -1;
    tlb.setEvictionListener([&](Vpn v, int w) {
        evicted = v;
        warp = w;
    });
    tlb.fill(1, Translation{0, false}, 11);
    tlb.fill(2, Translation{0, false}, 12);
    tlb.fill(3, Translation{0, false}, 13);
    tlb.fill(4, Translation{0, false}, 14);
    tlb.fill(5, Translation{0, false}, 15);
    EXPECT_EQ(evicted, 1u);
    EXPECT_EQ(warp, 11);
}

TEST(Tlb, FlushEmptiesAndCounts)
{
    Tlb tlb(TlbConfig{});
    tlb.fill(1, Translation{0, false});
    tlb.flush();
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_EQ(tlb.flushes(), 1u);
}

TEST(Tlb, LargePageEntries)
{
    Tlb tlb(TlbConfig{});
    tlb.fill(3, Translation{77, true});
    auto res = tlb.lookup(3, 0);
    ASSERT_TRUE(res.hit);
    EXPECT_TRUE(res.isLarge);
    EXPECT_EQ(res.ppn, 77u);
}

TEST(Tlb, EvictionUnderMixed4KAnd2MEntries)
{
    // Large and small entries coexist in one array (the tag already
    // encodes the granularity); replacement must stay strict LRU with
    // the page-size payload carried intact through an eviction cycle.
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    Tlb tlb(cfg);
    std::vector<Vpn> evicted;
    tlb.setEvictionListener([&](Vpn v, int) { evicted.push_back(v); });
    tlb.fill(10, Translation{1, false});
    tlb.fill(11, Translation{2, true});
    tlb.fill(12, Translation{3, false});
    tlb.fill(13, Translation{4, true});
    // Touch the small entry so the large one becomes LRU.
    EXPECT_FALSE(tlb.lookup(10, 0).isLarge);
    tlb.fill(14, Translation{5, false});
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 11u); // the large entry, not the touched one
    auto big = tlb.lookup(13, 0);
    ASSERT_TRUE(big.hit);
    EXPECT_TRUE(big.isLarge);
    EXPECT_EQ(big.ppn, 4u);
    tlb.fill(15, Translation{6, true});
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[1], 12u);
}

TEST(Tlb, DuplicateFillKeepsOneEntry)
{
    // Refilling a resident VPN (two warps' walks for the same page
    // completing back to back) must update the single entry in place,
    // never allocate a duplicate way.
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    Tlb tlb(cfg);
    int evictions = 0;
    tlb.setEvictionListener([&](Vpn, int) { ++evictions; });
    tlb.fill(1, Translation{10, false});
    tlb.fill(2, Translation{20, false});
    tlb.fill(3, Translation{30, false});
    tlb.fill(1, Translation{10, false}); // duplicate, promotes to MRU
    tlb.fill(4, Translation{40, false});
    // 4 distinct VPNs in a 4-way set: a duplicate way would have
    // forced an eviction here.
    EXPECT_EQ(evictions, 0);
    EXPECT_EQ(tlb.lookup(1, 0).ppn, 10u);
    // Now a 5th distinct VPN evicts true-LRU 2 (1 was promoted).
    tlb.fill(5, Translation{50, false});
    EXPECT_EQ(evictions, 1);
    EXPECT_FALSE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(1));
}

TEST(Tlb, LruOrderAfterHitUnderMiss)
{
    // Hit-under-miss: while one warp's miss is walking, other warps
    // keep hitting. Those hits must promote their entries so the
    // eventual fill evicts the genuinely coldest entry, and missing
    // lookups must not disturb the stack.
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 4;
    Tlb tlb(cfg);
    tlb.fill(1, Translation{1, false});
    tlb.fill(2, Translation{2, false});
    tlb.fill(3, Translation{3, false});
    tlb.fill(4, Translation{4, false});
    EXPECT_FALSE(tlb.lookup(9, 0).hit); // the miss that starts a walk
    // Hits under the outstanding miss, coldest-first.
    EXPECT_EQ(tlb.lookup(1, 1).depth, 3u);
    EXPECT_EQ(tlb.lookup(2, 2).depth, 3u);
    // More missing lookups (re-probes) leave LRU untouched.
    EXPECT_FALSE(tlb.lookup(9, 0).hit);
    // The walk's fill now evicts 3: 1 and 2 were promoted, 4 is MRU
    // of the original fills, leaving 3 at the LRU position.
    tlb.fill(9, Translation{9, false});
    EXPECT_FALSE(tlb.probe(3));
    EXPECT_TRUE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_TRUE(tlb.probe(4));
    // Stack order afterwards: 9 (fill) > 2 > 1 > 4.
    EXPECT_EQ(tlb.lookup(4, 0).depth, 3u);
}

TEST(TlbConfig, MoreWaysThanEntriesIsFullyAssociative)
{
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.ways = 8;
    Tlb tlb(cfg);
    for (Vpn v = 0; v < 4; ++v)
        tlb.fill(v * 1000, Translation{v, false});
    for (Vpn v = 0; v < 4; ++v)
        EXPECT_TRUE(tlb.probe(v * 1000));
}
