/**
 * @file
 * Unit tests for the memory access coalescer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpu/coalescer.hh"
#include "mem/request.hh"
#include "sim/rng.hh"
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

namespace {

/** The plain two-search coalescer: every lane searches the page groups
 *  from the first, then the group's lines from the first. */
CoalescedAccess
searchEveryLane(const std::vector<VirtAddr> &lane_addrs)
{
    CoalescedAccess out;
    for (VirtAddr va : lane_addrs) {
        const Vpn vpn = va >> kPageShift4K;
        const std::uint64_t vline = va >> kLineShift;
        auto pg = std::find_if(out.pages.begin(), out.pages.end(),
                               [vpn](const auto &p) {
                                   return p.vpn == vpn;
                               });
        if (pg == out.pages.end()) {
            out.pages.push_back({vpn, {vline}});
            ++out.totalLines;
            continue;
        }
        if (std::find(pg->vlines.begin(), pg->vlines.end(), vline) ==
            pg->vlines.end()) {
            pg->vlines.push_back(vline);
            ++out.totalLines;
        }
    }
    return out;
}

std::vector<VirtAddr>
laneVector(Rng &rng, unsigned shape)
{
    const unsigned lanes = 1 + static_cast<unsigned>(rng.below(32));
    const VirtAddr base = rng.below(1u << 20) << kPageShift4K;
    std::vector<VirtAddr> addrs;
    switch (shape) {
      case 0: { // strided: words, lines, pages, odd strides
        const VirtAddr strides[] = {4, 8, 12, 64, kLineSize, 200,
                                    kPageSize4K, kPageSize4K + 4};
        const VirtAddr stride = strides[rng.below(8)];
        for (unsigned l = 0; l < lanes; ++l)
            addrs.push_back(base + l * stride);
        break;
      }
      case 1: // clustered: a few pages, a few lines each
        for (unsigned l = 0; l < lanes; ++l)
            addrs.push_back(base + rng.below(3) * kPageSize4K +
                            rng.below(4) * kLineSize + rng.below(16));
        break;
      case 2: // fully random
        for (unsigned l = 0; l < lanes; ++l)
            addrs.push_back(rng.below(std::uint64_t(1) << 40));
        break;
      default: // page ping-pong A, B, A, ... over repeated lines
        for (unsigned l = 0; l < lanes; ++l)
            addrs.push_back(base + (l % 2) * 7 * kPageSize4K +
                            (l / 4 % 3) * kLineSize);
        break;
    }
    if (rng.chance(0.3)) // repeat a line from earlier in the warp
        addrs.push_back(addrs[rng.below(addrs.size())]);
    return addrs;
}

} // namespace

TEST(Coalescer, MatchesSearchingEveryLane)
{
    // One out and one spare pool across all calls, as the memory
    // stage keeps them.
    Rng rng(0xC0A1E5CE);
    CoalescedAccess acc;
    std::vector<std::vector<std::uint64_t>> spare;
    for (int call = 0; call < 4000; ++call) {
        const auto addrs =
            laneVector(rng, static_cast<unsigned>(call % 4));
        coalesceInto(acc, spare, addrs, kLineShift, kPageShift4K);
        const CoalescedAccess want = searchEveryLane(addrs);
        ASSERT_EQ(acc.totalLines, want.totalLines) << "call " << call;
        ASSERT_EQ(acc.pages.size(), want.pages.size()) << "call " << call;
        for (std::size_t i = 0; i < want.pages.size(); ++i) {
            ASSERT_EQ(acc.pages[i].vpn, want.pages[i].vpn)
                << "call " << call;
            ASSERT_EQ(acc.pages[i].vlines, want.pages[i].vlines)
                << "call " << call;
        }
    }
}
