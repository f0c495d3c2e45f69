/**
 * @file
 * Memory access coalescer.
 *
 * The address generator's lane addresses are reduced to (1) unique
 * cache-line references and (2) unique page (PTE) references, exactly
 * the two sets the paper presents in parallel to the L1 and the TLB.
 * The per-page grouping of lines is kept so that overlapped cache
 * access can release a page's lines as soon as its walk finishes.
 */

#ifndef GPU_COALESCER_HH
#define GPU_COALESCER_HH

#include <algorithm>
#include <vector>

#include "sim/types.hh"

namespace gpummu {

struct CoalescedAccess
{
    struct PageGroup
    {
        Vpn vpn;
        /** Unique virtual line addresses (byte addr >> line shift). */
        std::vector<std::uint64_t> vlines;
    };

    std::vector<PageGroup> pages;
    std::size_t totalLines = 0;

    /** Page divergence: distinct translations the warp needs. */
    std::size_t pageDivergence() const { return pages.size(); }
};

/**
 * Allocation-free coalescing into a reused @p out. Retired page
 * groups donate their line buffers to @p spare_lines, from where new
 * groups reclaim them, so a warm steady state performs no heap
 * traffic at all. The memory stage calls this once per memory
 * instruction with member scratch; coalesce() wraps it.
 *
 * Neighbouring lanes usually share a page and often a line, so each
 * lane first tests the page group the previous lane used, and searches
 * the others only when that misses; a group's lines are searched
 * newest first. Pages and lines keep their first-seen order either
 * way.
 */
inline void
coalesceInto(CoalescedAccess &out,
             std::vector<std::vector<std::uint64_t>> &spare_lines,
             const std::vector<VirtAddr> &lane_addrs,
             unsigned line_shift, unsigned page_shift)
{
    for (auto &pg : out.pages) {
        pg.vlines.clear();
        spare_lines.push_back(std::move(pg.vlines));
    }
    out.pages.clear();
    out.totalLines = 0;
    // The page group the previous lane used; valid once one exists.
    std::size_t cur = 0;
    for (VirtAddr va : lane_addrs) {
        const Vpn vpn = va >> page_shift;
        const std::uint64_t vline = va >> line_shift;
        if (out.pages.empty() || out.pages[cur].vpn != vpn) {
            auto pg = std::find_if(out.pages.begin(), out.pages.end(),
                                   [vpn](const auto &p) {
                                       return p.vpn == vpn;
                                   });
            if (pg == out.pages.end()) {
                CoalescedAccess::PageGroup g;
                g.vpn = vpn;
                if (!spare_lines.empty()) {
                    g.vlines = std::move(spare_lines.back());
                    spare_lines.pop_back();
                }
                g.vlines.push_back(vline);
                cur = out.pages.size();
                out.pages.push_back(std::move(g));
                ++out.totalLines;
                continue;
            }
            cur = static_cast<std::size_t>(pg - out.pages.begin());
        }
        // Newest line first: a repeat is most often the last one.
        auto &lines = out.pages[cur].vlines;
        if (std::find(lines.rbegin(), lines.rend(), vline) ==
            lines.rend()) {
            lines.push_back(vline);
            ++out.totalLines;
        }
    }
}

/**
 * Coalesce lane addresses. @p line_shift is the cache line shift and
 * @p page_shift the translation granularity (12 or 21).
 */
inline CoalescedAccess
coalesce(const std::vector<VirtAddr> &lane_addrs, unsigned line_shift,
         unsigned page_shift)
{
    CoalescedAccess out;
    std::vector<std::vector<std::uint64_t>> spare_lines;
    coalesceInto(out, spare_lines, lane_addrs, line_shift, page_shift);
    return out;
}

} // namespace gpummu

#endif // GPU_COALESCER_HH
