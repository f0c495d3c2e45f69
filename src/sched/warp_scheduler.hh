/**
 * @file
 * Warp scheduler interface.
 *
 * Once per tick the core hands the scheduler the warps that may issue
 * as a mask over warp slots, and the scheduler returns them in issue
 * order (order()), as two masks walked one after the other. The
 * core's issue pass (gpu/issue.hh) walks that order until the issue
 * width is spent, then reports the last warp a walk of the whole
 * order would have reached (consumed()). The scheduler also gates
 * memory issue with a mask (memGate(): CCWS-family schedulers
 * throttle which warps may touch the memory system). The core feeds
 * back cache, victim-tag and TLB events through the notification
 * hooks; each scheduler uses the subset it cares about. Masks hold 64
 * slots, which bounds the warp slots of a core.
 */

#ifndef SCHED_WARP_SCHEDULER_HH
#define SCHED_WARP_SCHEDULER_HH

#include <cstdint>
#include <string>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gpummu {

/** An issue order over warp slots: the set bits of @c first in
 *  ascending order, then those of @c then. */
struct WarpOrder
{
    std::uint64_t first = 0;
    std::uint64_t then = 0;
};

class WarpScheduler
{
  public:
    virtual ~WarpScheduler() = default;

    /** The warps of @p ready, those that may issue this cycle (a
     *  non-empty mask over warp slots), in issue order. */
    virtual WarpOrder order(std::uint64_t ready) = 0;

    /** The issue pass stopped at @p warp_id: the last warp of the
     *  order it reached, issued or skipped. */
    virtual void consumed(int warp_id) = 0;

    /**
     * The warps that may issue a *memory* instruction now, as a mask.
     * CCWS-family schedulers clear the bits of de-prioritized warps;
     * compute instructions are never gated.
     */
    virtual std::uint64_t memGate() const { return ~std::uint64_t(0); }

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
     * that tick() is a no-op and memGate() is constant, so
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
    /** Schedules warp ids below @p num_warps (at most 64). */
    explicit LooseRoundRobin(unsigned num_warps)
    {
        GPUMMU_ASSERT(num_warps <= 64);
    }

    WarpOrder
    order(std::uint64_t ready) override
    {
        const std::uint64_t above =
            last_ == 63 ? 0 : ~std::uint64_t(0) << (last_ + 1);
        return {ready & above, ready & ~above};
    }

    void consumed(int warp_id) override { last_ = warp_id; }

  private:
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
    WarpOrder
    order(std::uint64_t ready) override
    {
        // The greedy warp first, the rest oldest (lowest id) first.
        const std::uint64_t greedy =
            greedy_ < 0 ? 0 : ready & (std::uint64_t(1) << greedy_);
        return {greedy, ready & ~greedy};
    }

    void consumed(int warp_id) override { greedy_ = warp_id; }

  private:
    int greedy_ = -1;
};

} // namespace gpummu

#endif // SCHED_WARP_SCHEDULER_HH
