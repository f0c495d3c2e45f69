/**
 * @file
 * The SIMT core's issue step over masks of warp slots. It costs time
 * per retired or issued warp, not per due warp.
 */

#ifndef GPU_ISSUE_HH
#define GPU_ISSUE_HH

#include <bit>
#include <cstdint>

#include "sched/warp_scheduler.hh"

namespace gpummu {

/**
 * Retire the warps of @p done in slot order and return the warps of
 * @p mem that the memory gate allows, read as a scan in slot order
 * would: a retire may change the gate (a throttle recomputes its
 * allowed set in onWarpReset()), so the gate bits of the slots below
 * a retiring warp are read before it retires.
 */
template <typename Retire>
std::uint64_t
retireAndGate(const WarpScheduler &sched, std::uint64_t done,
              std::uint64_t mem, Retire &&retire)
{
    std::uint64_t allowed = 0;
    for (; done != 0; done &= done - 1) {
        const int r = std::countr_zero(done);
        const std::uint64_t below = (std::uint64_t(1) << r) - 1;
        if (mem & below) {
            allowed |= sched.memGate() & mem & below;
            mem &= ~below;
        }
        retire(r);
    }
    if (mem != 0)
        allowed |= sched.memGate() & mem;
    return allowed;
}

/**
 * Issue up to @p width warps of @p ready through @p issue, in the
 * scheduler's order; @p mem marks those whose next instruction is a
 * load or a store. The core has one load/store unit, so once a memory
 * warp issued, the other memory warps leave the order. The scheduler
 * is told the last warp a walk of the whole order would have reached:
 * the last one issued when the width ran out, else the order's last.
 *
 * @return the number of instructions issued
 */
template <typename Issue>
unsigned
issuePass(WarpScheduler &sched, std::uint64_t ready, std::uint64_t mem,
          unsigned width, Issue &&issue)
{
    if (ready == 0)
        return 0;
    if ((ready & (ready - 1)) == 0) { // a lone warp: no order needed
        const int id = std::countr_zero(ready);
        issue(id);
        sched.consumed(id);
        return 1;
    }
    const WarpOrder order = sched.order(ready);
    std::uint64_t seg[2] = {order.first, order.then};
    int last = 63 - std::countl_zero(seg[1] != 0 ? seg[1] : seg[0]);
    unsigned issued = 0;
    for (std::uint64_t &s : seg) {
        while (s != 0 && issued < width) {
            const int id = std::countr_zero(s);
            s &= s - 1;
            issue(id);
            if (++issued == width)
                last = id;
            if (mem >> id & 1) {
                seg[0] &= ~mem;
                seg[1] &= ~mem;
            }
        }
    }
    sched.consumed(last);
    return issued;
}

} // namespace gpummu

#endif // GPU_ISSUE_HH
