/**
 * @file
 * Common Page Matrix (CPM) for TLB-aware thread block compaction
 * (Section 8.2, Fig. 21 of the paper).
 *
 * One row per hardware warp slot; each row holds a saturating counter
 * per other warp indicating how often the two warps have recently hit
 * the same TLB entries. The compactor admits a thread into a dynamic warp
 * only when its original warp's counters against every original warp
 * already in that dynamic warp are saturated. The table is flushed
 * periodically (paper: every 500 cycles) to track phase changes.
 */

#ifndef TBC_CPM_HH
#define TBC_CPM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

struct CpmConfig
{
    /** Bits per saturating counter (paper sweeps 1-3; 3 best). */
    unsigned counterBits = 3;
    /** Flush period in cycles (paper: 500). */
    Cycle flushInterval = 500;
};

class CommonPageMatrix
{
  public:
    /** A row and a column per warp slot, @p num_warps of each. */
    CommonPageMatrix(const CpmConfig &cfg, unsigned num_warps)
        : cfg_(cfg), numWarps_(num_warps),
          counters_(static_cast<std::size_t>(num_warps) * num_warps, 0)
    {
        GPUMMU_ASSERT(cfg.counterBits >= 1 && cfg.counterBits <= 8);
        max_ = static_cast<std::uint8_t>((1u << cfg.counterBits) - 1);
    }

    std::uint8_t maxCount() const { return max_; }

    /** Record that warps @p a and @p b hit the same TLB entry. */
    void
    bump(int a, int b)
    {
        if (!inRange(a) || !inRange(b) || a == b)
            return;
        auto &c1 = at(a, b);
        if (c1 < max_)
            ++c1;
        auto &c2 = at(b, a);
        if (c2 < max_)
            ++c2;
    }

    /** True when the counter pair is saturated (or same warp). */
    bool
    isAffine(int a, int b) const
    {
        if (a == b)
            return true;
        if (!inRange(a) || !inRange(b))
            return false;
        return at(a, b) == max_;
    }

    std::uint8_t
    count(int a, int b) const
    {
        GPUMMU_ASSERT(inRange(a) && inRange(b));
        return at(a, b);
    }

    /** Periodic flush; call once per core cycle. */
    void
    tick(Cycle now)
    {
        if (now - lastFlush_ >= cfg_.flushInterval) {
            lastFlush_ = now;
            std::fill(counters_.begin(), counters_.end(), 0);
            flushes_.inc();
        }
    }

    void
    regStats(StatRegistry &reg, const std::string &prefix)
    {
        reg.addCounter(prefix + ".flushes", &flushes_);
    }

  private:
    bool
    inRange(int w) const
    {
        return w >= 0 && w < static_cast<int>(numWarps_);
    }

    std::uint8_t &
    at(int r, int c)
    {
        return counters_[static_cast<std::size_t>(r) * numWarps_ +
                         static_cast<std::size_t>(c)];
    }

    const std::uint8_t &
    at(int r, int c) const
    {
        return counters_[static_cast<std::size_t>(r) * numWarps_ +
                         static_cast<std::size_t>(c)];
    }

    CpmConfig cfg_;
    unsigned numWarps_;
    std::vector<std::uint8_t> counters_;
    std::uint8_t max_ = 7;
    Cycle lastFlush_ = 0;
    Counter flushes_;
};

} // namespace gpummu

#endif // TBC_CPM_HH
