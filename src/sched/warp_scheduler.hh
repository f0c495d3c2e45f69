/**
 * @file
 * Warp scheduler interface.
 *
 * The shader core consults the scheduler to order issueable warps and
 * to gate memory issue (CCWS-family schedulers throttle which warps
 * may touch the memory system). The core feeds back cache, victim-tag
 * and TLB events through the notification hooks; each scheduler uses
 * the subset it cares about.
 */

#ifndef SCHED_WARP_SCHEDULER_HH
#define SCHED_WARP_SCHEDULER_HH

#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    virtual std::string name() const = 0;

    /**
     * Choose the next warp to issue among @p issuable hardware warp
     * ids (never empty). The core calls this once per issue slot.
     */
    virtual int pick(Cycle now, const std::vector<int> &issuable) = 0;

    /**
     * May this warp issue a *memory* instruction now? CCWS-family
     * schedulers return false for de-prioritized warps; compute
     * instructions are never gated.
     */
    virtual bool mayIssueMem(int warp_id)
    {
        (void)warp_id;
        return true;
    }

    /** An L1 access by @p warp_id missed. @p tlb_missed: the same
     *  instruction also suffered at least one TLB miss. */
    virtual void
    onL1Miss(int warp_id, PhysAddr line_addr, bool tlb_missed)
    {
        (void)warp_id;
        (void)line_addr;
        (void)tlb_missed;
    }

    /** A line allocated by @p alloc_warp was evicted from the L1. */
    virtual void
    onL1Eviction(PhysAddr line_addr, int alloc_warp)
    {
        (void)line_addr;
        (void)alloc_warp;
    }

    /** TLB hit by @p warp_id at LRU stack depth @p depth. */
    virtual void
    onTlbHit(int warp_id, Vpn vpn, unsigned depth)
    {
        (void)warp_id;
        (void)vpn;
        (void)depth;
    }

    /** TLB miss by @p warp_id. */
    virtual void
    onTlbMiss(int warp_id, Vpn vpn)
    {
        (void)warp_id;
        (void)vpn;
    }

    /** A TLB entry allocated by @p alloc_warp was evicted. */
    virtual void
    onTlbEviction(Vpn vpn, int alloc_warp)
    {
        (void)vpn;
        (void)alloc_warp;
    }

    /**
     * Warp slot @p warp_id finished (or was re-launched with a new
     * thread block). Schedulers must drop its scheduling state so a
     * dead warp cannot hog the throttle budget.
     */
    virtual void onWarpReset(int warp_id) { (void)warp_id; }

    /** Called once per core cycle (score decay etc.). */
    virtual void tick(Cycle now) { (void)now; }

    /**
     * Does this scheduler observe cycles? Pure schedulers promise
     * that tick() is a no-op and mayIssueMem() is a pure query, so
     * the core may sleep through cycles in which nothing can issue
     * without calling them. CCWS-family schedulers (score decay,
     * periodic throttle recomputation, per-cycle throttle stats)
     * must return false, which keeps the core awake every cycle.
     */
    virtual bool tickIsPure() const { return true; }

    virtual void regStats(StatRegistry &reg, const std::string &prefix)
    {
        (void)reg;
        (void)prefix;
    }
};

/**
 * Loose round robin: the paper's default GPU scheduler. Warps issue
 * in slot order starting after the last issued warp.
 */
class LooseRoundRobin : public WarpScheduler
{
  public:
    explicit LooseRoundRobin(unsigned num_warps)
        : numWarps_(num_warps)
    {
    }

    std::string name() const override { return "lrr"; }

    int
    pick(Cycle now, const std::vector<int> &issuable) override
    {
        (void)now;
        // Choose the first issuable warp after last_, in slot order.
        int best = -1;
        unsigned best_dist = numWarps_ + 1;
        for (int w : issuable) {
            const unsigned dist =
                (static_cast<unsigned>(w) + numWarps_ - last_ - 1) %
                numWarps_;
            if (dist < best_dist) {
                best_dist = dist;
                best = w;
            }
        }
        if (best >= 0)
            last_ = static_cast<unsigned>(best);
        return best;
    }

  private:
    unsigned numWarps_;
    unsigned last_ = 0;
};

/**
 * Greedy-then-oldest: keep issuing the same warp until it stalls,
 * then fall back to the lowest warp id. Included for scheduler
 * sensitivity studies beyond the paper's baseline.
 */
class GreedyThenOldest : public WarpScheduler
{
  public:
    std::string name() const override { return "gto"; }

    int
    pick(Cycle now, const std::vector<int> &issuable) override
    {
        (void)now;
        for (int w : issuable) {
            if (w == greedy_)
                return w;
        }
        int best = issuable.front();
        for (int w : issuable)
            best = std::min(best, w);
        greedy_ = best;
        return best;
    }

  private:
    int greedy_ = -1;
};

} // namespace gpummu

#endif // SCHED_WARP_SCHEDULER_HH
