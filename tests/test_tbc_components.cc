/**
 * @file
 * Unit tests for the TBC building blocks: common page matrix, thread
 * compactor and block-wide stack.
 */

#include <gtest/gtest.h>

#include "sim/rng.hh"
#include "tbc/block_stack.hh"
#include "tbc/compactor.hh"
#include "tbc/cpm.hh"

using namespace gpummu;

// ------------------------------------------------------------- CPM

namespace {

constexpr unsigned kWarpSlots = 48;

} // namespace

TEST(Cpm, SaturatesAtCounterMax)
{
    CpmConfig cfg;
    cfg.counterBits = 2;
    CommonPageMatrix cpm(cfg, kWarpSlots);
    EXPECT_EQ(cpm.maxCount(), 3u);
    for (int i = 0; i < 10; ++i)
        cpm.bump(1, 2);
    EXPECT_EQ(cpm.count(1, 2), 3u);
    EXPECT_EQ(cpm.count(2, 1), 3u); // symmetric
}

TEST(Cpm, AffinityRequiresSaturation)
{
    CpmConfig cfg;
    cfg.counterBits = 3;
    CommonPageMatrix cpm(cfg, kWarpSlots);
    EXPECT_FALSE(cpm.isAffine(1, 2));
    for (int i = 0; i < 6; ++i)
        cpm.bump(1, 2);
    EXPECT_FALSE(cpm.isAffine(1, 2));
    cpm.bump(1, 2);
    EXPECT_TRUE(cpm.isAffine(1, 2));
}

TEST(Cpm, SameWarpAlwaysAffine)
{
    CommonPageMatrix cpm(CpmConfig{}, kWarpSlots);
    EXPECT_TRUE(cpm.isAffine(5, 5));
}

TEST(Cpm, PeriodicFlushClearsCounters)
{
    CpmConfig cfg;
    cfg.flushInterval = 100;
    CommonPageMatrix cpm(cfg, kWarpSlots);
    for (int i = 0; i < 10; ++i)
        cpm.bump(0, 1);
    EXPECT_TRUE(cpm.isAffine(0, 1));
    cpm.tick(99);
    EXPECT_TRUE(cpm.isAffine(0, 1));
    cpm.tick(100);
    EXPECT_FALSE(cpm.isAffine(0, 1));
}

TEST(Cpm, OutOfRangeWarpsIgnored)
{
    CommonPageMatrix cpm(CpmConfig{}, kWarpSlots);
    cpm.bump(-1, 3);
    cpm.bump(3, 1000);
    EXPECT_FALSE(cpm.isAffine(3, 1000));
}

// ------------------------------------------------------- Compactor

namespace {

BlockMask
maskOf(std::initializer_list<int> tids)
{
    BlockMask m;
    for (int t : tids)
        m.set(static_cast<std::size_t>(t));
    return m;
}

} // namespace

TEST(Compactor, FullMaskReproducesStaticWarps)
{
    BlockMask m;
    for (int t = 0; t < 64; ++t)
        m.set(t);
    auto warps = compactThreads(m, 64, nullptr, 0);
    ASSERT_EQ(warps.size(), 2u);
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        EXPECT_EQ(warps[0].laneThread[lane], static_cast<int>(lane));
        EXPECT_EQ(warps[1].laneThread[lane],
                  static_cast<int>(lane + 32));
    }
}

TEST(Compactor, ThreadsKeepTheirLane)
{
    // Threads 0 and 32 share lane 0; 33 is lane 1.
    auto warps = compactThreads(maskOf({0, 32, 33}), 64, nullptr, 0);
    ASSERT_EQ(warps.size(), 2u);
    EXPECT_EQ(warps[0].laneThread[0], 0);
    EXPECT_EQ(warps[0].laneThread[1], 33);
    EXPECT_EQ(warps[1].laneThread[0], 32);
}

TEST(Compactor, SparseMasksCompactIntoFewerWarps)
{
    // The threads of every other warp: each lane has 4 candidates,
    // so compaction forms exactly 4 full dynamic warps.
    BlockMask m;
    for (int t = 0; t < 256; ++t) {
        if ((t / 32) % 2 == 0)
            m.set(t);
    }
    auto warps = compactThreads(m, 256, nullptr, 0);
    EXPECT_EQ(warps.size(), 4u);
    unsigned total = 0;
    for (const auto &w : warps)
        total += w.activeLanes();
    EXPECT_EQ(total, m.count());
}

TEST(Compactor, TlbAwareSplitsNonAffineWarps)
{
    CpmConfig cfg;
    cfg.counterBits = 1;
    CommonPageMatrix cpm(cfg, kWarpSlots);
    // Warps 0 and 1 are affine; warp 2 is a stranger.
    cpm.bump(0, 1);
    // Threads from warps 0, 1, 2 all at lane 0.
    auto warps =
        compactThreads(maskOf({0, 32, 64}), 96, &cpm, /*base=*/0);
    // Baseline would make 3 warps anyway (same lane). Now mix lanes:
    auto mixed = compactThreads(maskOf({0, 33, 66}), 96, &cpm, 0);
    // 0 (warp0) and 33 (warp1) are affine -> same dynamic warp;
    // 66 (warp2) must go to its own warp.
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_EQ(mixed[0].laneThread[0], 0);
    EXPECT_EQ(mixed[0].laneThread[1], 33);
    EXPECT_EQ(mixed[1].laneThread[2], 66);
    (void)warps;
}

TEST(Compactor, TlbAgnosticPacksRegardlessOfAffinity)
{
    CommonPageMatrix cpm(CpmConfig{}, kWarpSlots); // all counters zero
    auto warps = compactThreads(maskOf({0, 33, 66}), 96, nullptr, 0);
    EXPECT_EQ(warps.size(), 1u);
    EXPECT_EQ(warps[0].activeLanes(), 3u);
    (void)cpm;
}

TEST(Compactor, ProgressWithNoAffinityAtAll)
{
    CommonPageMatrix cpm(CpmConfig{}, kWarpSlots);
    // 8 threads, all lane 0, from 8 different warps, none affine.
    BlockMask m;
    for (int w = 0; w < 8; ++w)
        m.set(w * 32);
    auto warps = compactThreads(m, 256, &cpm, 0);
    EXPECT_EQ(warps.size(), 8u); // one per thread, but all placed
    unsigned total = 0;
    for (const auto &w : warps)
        total += w.activeLanes();
    EXPECT_EQ(total, 8u);
}

TEST(Compactor, NeverFormsMoreDynamicWarpsThanOriginalWarps)
{
    // TbcCore gives dynamic warp i of a block the block's warp slot
    // warpBase + i, which needs at most one dynamic warp per original
    // warp with a thread in the mask. Random masks over blocks of up
    // to 1,024 threads, and random symmetric affinities, under both
    // compactors. Each dynamic warp must also take every remaining
    // thread of its smallest original warp (the bound's proof).
    Rng rng(0x7bc0);
    for (int trial = 0; trial < 3000; ++trial) {
        const unsigned warps_in_block =
            1 + static_cast<unsigned>(rng.below(kMaxBlockThreads /
                                                kWarpWidth));
        const unsigned threads = warps_in_block * kWarpWidth;
        const int base = static_cast<int>(rng.below(64));
        const double density = rng.uniform();
        BlockMask mask;
        for (unsigned t = 0; t < threads; ++t) {
            if (rng.chance(density))
                mask.set(t);
        }
        CpmConfig cfg;
        cfg.counterBits = 1; // one bump saturates both counters
        CommonPageMatrix cpm(cfg, static_cast<unsigned>(base) +
                                      warps_in_block);
        const double affinity = rng.uniform();
        for (unsigned a = 0; a < warps_in_block; ++a) {
            for (unsigned b = a + 1; b < warps_in_block; ++b) {
                if (rng.chance(affinity))
                    cpm.bump(base + static_cast<int>(a),
                             base + static_cast<int>(b));
            }
        }
        unsigned origin_warps = 0;
        for (unsigned w = 0; w < warps_in_block; ++w) {
            bool any = false;
            for (unsigned l = 0; l < kWarpWidth; ++l)
                any = any || mask.test(w * kWarpWidth + l);
            origin_warps += any;
        }

        for (const CommonPageMatrix *matrix :
             {static_cast<const CommonPageMatrix *>(nullptr),
              static_cast<const CommonPageMatrix *>(&cpm)}) {
            SCOPED_TRACE(::testing::Message()
                         << "trial " << trial << ", "
                         << (matrix ? "TLB-aware" : "TLB-agnostic"));
            const auto packed =
                compactThreads(mask, threads, matrix, base);
            ASSERT_LE(packed.size(), origin_warps);
            BlockMask left = mask;
            for (const CompactedWarp &dw : packed) {
                int smallest = -1;
                for (unsigned l = 0; l < kWarpWidth; ++l) {
                    const int t = dw.laneThread[l];
                    if (t < 0)
                        continue;
                    ASSERT_EQ(static_cast<unsigned>(t) % kWarpWidth, l);
                    ASSERT_TRUE(left.test(static_cast<std::size_t>(t)));
                    left.reset(static_cast<std::size_t>(t));
                    const int w = t / static_cast<int>(kWarpWidth);
                    if (smallest < 0 || w < smallest)
                        smallest = w;
                }
                ASSERT_GE(smallest, 0);
                for (unsigned l = 0; l < kWarpWidth; ++l) {
                    ASSERT_FALSE(left.test(
                        static_cast<std::size_t>(smallest) * kWarpWidth +
                        l));
                }
            }
            ASSERT_TRUE(left.none());
        }
    }
}

// ------------------------------------------------------ BlockStack

TEST(BlockStack, DivergenceAndReconvergence)
{
    BlockStack s;
    BlockMask full;
    for (int t = 0; t < 128; ++t)
        full.set(t);
    s.reset(0, full);

    BlockMask taken, fall;
    for (int t = 0; t < 128; ++t)
        (t < 64 ? taken : fall).set(t);
    EXPECT_TRUE(s.branch(taken, fall, 1, 2, 3));
    EXPECT_EQ(s.top().block, 1);
    EXPECT_EQ(s.top().mask, taken);

    s.top().block = 3; // taken path reaches the join
    s.reconverge();
    EXPECT_EQ(s.top().block, 2);
    s.top().block = 3;
    s.reconverge();
    EXPECT_EQ(s.depth(), 1u);
    EXPECT_EQ(s.top().mask, full);
}

TEST(BlockStack, UniformBranchRedirects)
{
    BlockStack s;
    BlockMask m;
    m.set(0);
    s.reset(0, m);
    BlockMask none;
    EXPECT_FALSE(s.branch(m, none, 7, 8, 9));
    EXPECT_EQ(s.top().block, 7);
    EXPECT_EQ(s.depth(), 1u);
}

TEST(BlockStack, ClearThreadsEmptiesEntries)
{
    BlockStack s;
    BlockMask m;
    m.set(0);
    m.set(1);
    s.reset(0, m);
    s.clearThreads(m);
    s.reconverge();
    EXPECT_TRUE(s.empty());
}
