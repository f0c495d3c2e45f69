/**
 * @file
 * Unit tests for the memory access coalescer.
 */

#include <gtest/gtest.h>

#include "gpu/coalescer.hh"
#include "mem/request.hh"
#include "sim/types.hh"

using namespace gpummu;

TEST(Coalescer, AdjacentLanesShareOneLine)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(0x10000 + i * 4);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 1u);
    EXPECT_EQ(acc.totalLines, 1u);
}

TEST(Coalescer, StridedLanesSplitLinesSamePage)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(0x10000 + i * kLineSize);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 1u);
    EXPECT_EQ(acc.totalLines, 8u);
}

TEST(Coalescer, PageDivergenceCountsDistinctPages)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 4; ++i)
        addrs.push_back(0x10000 + i * kPageSize4K);
    addrs.push_back(0x10000); // duplicate page
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 4u);
}

TEST(Coalescer, LinesGroupedUnderTheirPage)
{
    std::vector<VirtAddr> addrs = {
        0x1000, 0x1100, 0x2000, 0x2200, 0x2200,
    };
    auto acc = coalesce(addrs, kLineShift, 12);
    ASSERT_EQ(acc.pages.size(), 2u);
    EXPECT_EQ(acc.pages[0].vpn, 0x1u);
    EXPECT_EQ(acc.pages[0].vlines.size(), 2u);
    EXPECT_EQ(acc.pages[1].vpn, 0x2u);
    EXPECT_EQ(acc.pages[1].vlines.size(), 2u);
    EXPECT_EQ(acc.totalLines, 4u);
}

TEST(Coalescer, MaxDivergenceOneLanePerPage)
{
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 32; ++i)
        addrs.push_back(static_cast<VirtAddr>(i) * 16 * kPageSize4K);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    EXPECT_EQ(acc.pageDivergence(), 32u);
    EXPECT_EQ(acc.totalLines, 32u);
}

TEST(Coalescer, LargePageGranularityMergesPages)
{
    // Two 4KB pages inside the same 2MB page coalesce to one PTE.
    std::vector<VirtAddr> addrs = {0x10000, 0x10000 + kPageSize4K};
    auto small = coalesce(addrs, kLineShift, kPageShift4K);
    auto large = coalesce(addrs, kLineShift, kPageShift2M);
    EXPECT_EQ(small.pageDivergence(), 2u);
    EXPECT_EQ(large.pageDivergence(), 1u);
}

TEST(Coalescer, LineNeverSpansPages)
{
    // Every vline must belong to exactly the page it is grouped under.
    std::vector<VirtAddr> addrs;
    for (int i = 0; i < 64; ++i)
        addrs.push_back(0x40000 + static_cast<VirtAddr>(i) * 733);
    auto acc = coalesce(addrs, kLineShift, kPageShift4K);
    for (const auto &pg : acc.pages) {
        for (auto vline : pg.vlines) {
            EXPECT_EQ((vline << kLineShift) >> kPageShift4K, pg.vpn);
        }
    }
}

TEST(Coalescer, ReusedScratchMatchesFreshResult)
{
    // The memory stage reuses one CoalescedAccess and its retired line
    // buffers across instructions; a wide access followed by a narrow
    // one must not leak pages or lines from the first.
    std::vector<VirtAddr> wide, narrow = {0x9000, 0x9040, 0x9000};
    for (int i = 0; i < 32; ++i)
        wide.push_back(static_cast<VirtAddr>(i) * 3 * kLineSize);
    CoalescedAccess acc;
    std::vector<std::vector<std::uint64_t>> spare;
    for (const auto *addrs : {&wide, &narrow, &wide}) {
        coalesceInto(acc, spare, *addrs, kLineShift, kPageShift4K);
        const auto fresh = coalesce(*addrs, kLineShift, kPageShift4K);
        EXPECT_EQ(acc.totalLines, fresh.totalLines);
        ASSERT_EQ(acc.pages.size(), fresh.pages.size());
        for (std::size_t i = 0; i < acc.pages.size(); ++i) {
            EXPECT_EQ(acc.pages[i].vpn, fresh.pages[i].vpn);
            EXPECT_EQ(acc.pages[i].vlines, fresh.pages[i].vlines);
        }
    }
}
