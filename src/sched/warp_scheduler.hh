/**
 * @file
 * Warp scheduler interface.
 *
 * Once per tick the core collects the warps that may issue, in
 * ascending id order, and the scheduler puts them in issue order in
 * place (order()). The core's issue pass (gpu/issue.hh) walks that
 * order until the issue width is spent, then reports the last warp it
 * reached (consumed()). The scheduler also gates memory issue
 * (CCWS-family schedulers throttle which warps may touch the memory
 * system). The core feeds back cache, victim-tag and TLB events
 * through the notification hooks; each scheduler uses the subset it
 * cares about.
 */

#ifndef SCHED_WARP_SCHEDULER_HH
#define SCHED_WARP_SCHEDULER_HH

#include <algorithm>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    /**
     * Put @p ready, the ids of the warps that may issue this cycle
     * (ascending, never empty), in issue order.
     */
    virtual void order(std::vector<int> &ready) = 0;

    /** The issue pass stopped at @p warp_id: the last warp of the
     *  order it reached, issued or skipped. */
    virtual void consumed(int warp_id) = 0;

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
 * in slot order starting after the last warp the issue pass reached.
 */
class LooseRoundRobin : public WarpScheduler
{
  public:
    /** Schedules warp ids below @p num_warps. */
    explicit LooseRoundRobin(unsigned num_warps)
        : numWarps_(static_cast<int>(num_warps))
    {
    }

    void
    order(std::vector<int> &ready) override
    {
        GPUMMU_ASSERT(ready.back() < numWarps_);
        std::rotate(ready.begin(),
                    std::upper_bound(ready.begin(), ready.end(), last_),
                    ready.end());
    }

    void consumed(int warp_id) override { last_ = warp_id; }

  private:
    int numWarps_;
    int last_ = 0;
};

/**
 * Greedy-then-oldest: keep issuing the same warp until it stalls,
 * then fall back to the lowest warp id. Included for scheduler
 * sensitivity studies beyond the paper's baseline.
 */
class GreedyThenOldest : public WarpScheduler
{
  public:
    void
    order(std::vector<int> &ready) override
    {
        // The greedy warp first, the rest oldest (lowest id) first.
        auto it = std::lower_bound(ready.begin(), ready.end(), greedy_);
        if (it != ready.end() && *it == greedy_)
            std::rotate(ready.begin(), it, it + 1);
    }

    void consumed(int warp_id) override { greedy_ = warp_id; }

  private:
    int greedy_ = -1;
};

} // namespace gpummu

#endif // SCHED_WARP_SCHEDULER_HH
