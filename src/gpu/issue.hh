/**
 * @file
 * The issue pass both shader cores run once per tick.
 */

#ifndef GPU_ISSUE_HH
#define GPU_ISSUE_HH

#include <vector>

#include "gpu/kernel.hh"
#include "sched/warp_scheduler.hh"

namespace gpummu {

/**
 * Issue up to @p width instructions from @p ready, the ids of the
 * warps that may issue this cycle in ascending order. The scheduler
 * orders the list once; the pass then walks it:
 * - a warp with no instruction left (@p next returns nullptr) is
 *   retired through @p retire and takes no issue slot;
 * - the core has one load/store unit, so once a memory instruction
 *   issued, later memory warps are skipped this cycle;
 * - every other warp issues through @p issue.
 * The scheduler is told the last warp the pass reached.
 *
 * @return the number of instructions issued
 */
template <typename Next, typename Retire, typename Issue>
unsigned
issuePass(WarpScheduler &sched, std::vector<int> &ready, unsigned width,
          Next &&next, Retire &&retire, Issue &&issue)
{
    if (ready.empty())
        return 0;
    sched.order(ready);
    unsigned issued = 0;
    bool mem_issued = false;
    std::size_t n = 0;
    while (n < ready.size() && issued < width) {
        const int id = ready[n++];
        const Instruction *in = next(id);
        if (in == nullptr) {
            retire(id);
            continue;
        }
        const bool is_mem =
            in->op == Opcode::Load || in->op == Opcode::Store;
        if (is_mem && mem_issued)
            continue;
        issue(id);
        mem_issued = mem_issued || is_mem;
        ++issued;
    }
    sched.consumed(ready[n - 1]);
    return issued;
}

} // namespace gpummu

#endif // GPU_ISSUE_HH
