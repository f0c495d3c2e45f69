/**
 * @file
 * Cache-conscious wavefront scheduling (CCWS) and its TLB-aware
 * variants from the paper.
 *
 * CCWS (Rogers et al., MICRO 2012; Section 7.1 of the paper): each
 * warp owns a small victim tag array (VTA) of cache line tags it
 * recently lost from the L1. A miss that hits the warp's own VTA
 * means intra-warp locality was destroyed by inter-warp interference;
 * the lost-locality scoring (LLS) logic bumps that warp's score. When
 * the total score passes a cutoff, only the highest-scoring warps may
 * issue memory instructions, shrinking the set of overlapping warps
 * until reuse returns. Scores decay over time so throttling adapts.
 *
 * TA-CCWS (Section 7.2): identical, but a VTA hit whose instruction
 * also TLB-missed is weighted `tlbMissWeight` times heavier (the
 * paper explores 1:1, 2:1, 4:1, 8:1).
 *
 * TCWS (Section 7.2): replaces the cache-line VTAs with *TLB* victim
 * tag arrays holding page tags (half the hardware), probed on TLB
 * misses; additionally, TLB hits feed the score weighted by the LRU
 * depth of the hit (deeper hit = entry closer to eviction), keeping
 * scheduling decisions frequent. Paper's best weights: LRU(1,2,4,8).
 *
 * All three share one throttle (VtaThrottle): loose round robin issue
 * order, a victim tag array and a saturating, decaying score per
 * warp, and the allowed set recomputed from the scores. Ccws and Tcws
 * differ only in the hooks that feed the score.
 */

#ifndef SCHED_CCWS_HH
#define SCHED_CCWS_HH

#include <array>
#include <memory>
#include <vector>

#include "mem/set_assoc.hh"
#include "sched/warp_scheduler.hh"

namespace gpummu {

/** The throttle parameters CCWS and TCWS share. */
struct ThrottleConfig
{
    unsigned vtaEntriesPerWarp = 16; ///< paper: 16-entry, 8-way
    unsigned vtaWays = 8;
    /** Score added on a VTA hit. */
    std::uint64_t vtaHitScore = 128;
    /** Per-warp score saturation (keeps one hot warp from owning
     *  the whole cutoff budget). */
    std::uint64_t scoreCap = 512;
    /** Total-score cutoff that triggers throttling. */
    std::uint64_t cutoff = 640;
    /** Never throttle below this many memory-eligible warps. */
    unsigned minAllowed = 6;
    /** Exponential score half-life in cycles. */
    Cycle halfLife = 4096;
    /** Recompute the allowed set at most this often. */
    Cycle updateInterval = 128;
};

struct CcwsConfig : ThrottleConfig
{
    /** TA-CCWS: extra weight for VTA hits under a TLB miss (1 = off). */
    unsigned tlbMissWeight = 1;
};

struct TcwsConfig : ThrottleConfig
{
    /** The TLB VTA holds 8 entries per warp (paper sweeps 2-16; 8
     *  best). */
    TcwsConfig() { vtaEntriesPerWarp = 8; }

    /**
     * Score added per TLB hit, indexed by LRU depth (4-way TLB).
     * All-zero disables depth weighting (the Fig. 17 configuration);
     * the paper's best is {1, 2, 4, 8} (Fig. 18).
     */
    std::array<std::uint64_t, 4> lruWeights{0, 0, 0, 0};
};

/**
 * Lost-locality throttle over @p num_warps warp slots: when the total
 * score passes the cutoff, only the highest scorers may issue memory
 * instructions. Subclasses score VTA hits (lostLocality) and feed
 * victims (recordVictim) from their own hooks.
 */
class VtaThrottle : public WarpScheduler
{
  public:
    void order(std::vector<int> &ready) override { rr_.order(ready); }
    void consumed(int warp_id) override { rr_.consumed(warp_id); }
    bool mayIssueMem(int warp_id) override;
    void onWarpReset(int warp_id) override;
    void tick(Cycle now) override;
    /** Stateful tick (decay, throttle updates, per-cycle stats). */
    bool tickIsPure() const override { return false; }
    void regStats(StatRegistry &reg, const std::string &prefix) override;

    /** Decayed score of one warp (exposed for tests). */
    std::uint64_t score(int warp_id) const;
    std::uint64_t totalScore() const;

  protected:
    VtaThrottle(const ThrottleConfig &cfg, unsigned num_warps);

    /** Does @p warp_id's VTA hold @p tag? A hit is counted. */
    bool lostLocality(int warp_id, std::uint64_t tag);
    /** @p tag (a line or a page) allocated by @p alloc_warp was
     *  evicted: remember it in that warp's VTA. */
    void recordVictim(std::uint64_t tag, int alloc_warp);
    void bump(int warp_id, std::uint64_t amount);

    ThrottleConfig cfg_;

  private:
    void recomputeAllowed();

    LooseRoundRobin rr_;
    std::vector<std::unique_ptr<SetAssocArray<char>>> vtas_;
    std::vector<std::uint64_t> scores_;
    std::vector<bool> allowed_;
    Cycle lastDecay_ = 0;
    Cycle lastUpdate_ = 0;
    bool throttling_ = false;

    Counter vtaHits_;
    Counter throttledCycles_;
};

/** CCWS / TA-CCWS (TA-CCWS is CCWS with tlbMissWeight > 1). */
class Ccws : public VtaThrottle
{
  public:
    Ccws(const CcwsConfig &cfg, unsigned num_warps);

    void onL1Miss(int warp_id, PhysAddr line_addr,
                  bool tlb_missed) override;
    void onL1Eviction(PhysAddr line_addr, int alloc_warp) override;

  private:
    unsigned tlbMissWeight_;
};

/** TLB-conscious warp scheduling. */
class Tcws : public VtaThrottle
{
  public:
    Tcws(const TcwsConfig &cfg, unsigned num_warps);

    void onTlbMiss(int warp_id, Vpn vpn) override;
    void onTlbHit(int warp_id, Vpn vpn, unsigned depth) override;
    void onTlbEviction(Vpn vpn, int alloc_warp) override;

  private:
    std::array<std::uint64_t, 4> lruWeights_;
};

} // namespace gpummu

#endif // SCHED_CCWS_HH
