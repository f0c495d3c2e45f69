/**
 * @file
 * Per-warp stall attribution.
 *
 * Every cycle a resident warp cannot issue is attributed to exactly
 * one cause, so "where did the time go" has a quantitative answer for
 * any run (the attribution Accel-Sim-style modeling work relies on):
 *
 *  - TlbMiss:          waiting on a TLB miss (its own walks, or the
 *                      blocking-TLB gate while the MMU drains);
 *  - WalkerStructural: bounced by the no-miss-under-miss policy and
 *                      parked until the walker pool drains;
 *  - L2Tlb:            the instruction's L1-TLB misses were all
 *                      resident in the shared L2 TLB, so the wait is
 *                      its short hit latency rather than a page walk;
 *  - Dram:             the instruction's slowest line went to DRAM;
 *  - L1Miss:           the slowest line missed the L1 but hit the L2
 *                      (or merged into an outstanding fill);
 *  - Interconnect:     only fixed pipe latency remained (interconnect
 *                      legs, TLB port serialization, CACTI penalties);
 *  - Reconvergence:    waiting at a block-wide reconvergence barrier
 *                      (thread block compaction cores only).
 *
 * Cycles a warp spends executing, covered by ALU latency, or absent
 * are not attributed, so per-warp attributed totals never exceed the
 * run's cycle count. The per-reason distributions over warps are
 * registered as the `<core>.stalls.*` histogram block in the
 * StatRegistry JSON dump (summary-only: count/sum/mean/min/max, where
 * sum is the reason's total stalled warp-cycles).
 */

#ifndef TRACE_STALL_ACCOUNTING_HH
#define TRACE_STALL_ACCOUNTING_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

/**
 * Stall cause, ordered by attribution priority: when one memory
 * instruction has several causes (a TLB miss whose refill also went
 * to DRAM), the numerically largest one wins.
 */
enum class StallReason : std::uint8_t
{
    None = 0,         ///< not stalled / not attributable
    Reconvergence,    ///< block-wide barrier wait (TBC)
    Interconnect,     ///< fixed pipe latency only
    L1Miss,           ///< L1 miss served by the L2
    Dram,             ///< L2 miss served by DRAM
    L2Tlb,            ///< L1-TLB miss satisfied by the shared L2 TLB
    WalkerStructural, ///< bounced: walker pool busy (PTW full)
    TlbMiss,          ///< waiting on TLB-miss page walks
};
inline constexpr std::size_t kNumStallReasons = 8;

/** Stable stat-name suffix for a reason ("tlb_miss", "dram", ...). */
const char *stallReasonName(StallReason r);

/** a dominates b when its attribution priority is higher. */
inline StallReason
dominantStall(StallReason a, StallReason b)
{
    return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b)
               ? a
               : b;
}

/**
 * Per-warp-slot stall cycle ledger for one core. attribute() is
 * called at most once per (warp, cycle); finalize() folds the ledger
 * into per-reason histograms (one sample per warp slot that stalled
 * for that reason) before the registry is dumped.
 */
class WarpStallAccounting
{
  public:
    WarpStallAccounting() = default;

    /** Charge one cycle of warp @p warp to @p reason. */
    void
    attribute(int warp, StallReason reason)
    {
        attribute(warp, reason, 1);
    }

    /**
     * Charge @p cycles cycles at once: a wait charged as one
     * interval when it ends, or the cycles a sleeping core skipped,
     * in which the warp would have received the same attribution
     * every cycle.
     */
    void
    attribute(int warp, StallReason reason, std::uint64_t cycles)
    {
        if (reason == StallReason::None || warp < 0)
            return;
        const auto w = static_cast<std::size_t>(warp);
        if (w >= cells_.size())
            cells_.resize(w + 1);
        cells_[w][static_cast<std::size_t>(reason)] += cycles;
    }

    /** Total attributed cycles of one warp slot, all reasons. */
    std::uint64_t warpTotal(int warp) const;

    /** Total attributed warp-cycles for one reason, all warps. */
    std::uint64_t reasonTotal(StallReason reason) const;

    /** Warp slots the ledger has seen (attributed or not). */
    std::size_t numWarps() const { return cells_.size(); }

    /**
     * Fold the ledger into the registered histograms: for each
     * reason, one sample per warp slot with a nonzero total.
     * Idempotent; called by the top level before stats are dumped.
     */
    void finalize();

    /** Register "<prefix>.stalls.<reason>" histograms. */
    void regStats(StatRegistry &reg, const std::string &prefix);

  private:
    using Cell = std::array<std::uint64_t, kNumStallReasons>;
    std::vector<Cell> cells_;
    std::array<Histogram, kNumStallReasons> hists_;
    bool finalized_ = false;
};

} // namespace gpummu

#endif // TRACE_STALL_ACCOUNTING_HH
