/**
 * @file
 * Lane-aware thread compactor (Fung & Aamodt's TBC hardware, plus the
 * paper's TLB-aware admission rule).
 *
 * Threads keep their SIMD lane (register file bank) when compacted,
 * so dynamic warp i takes, for every lane, the i-th available thread
 * of that lane. The TLB-aware variant only packs a thread alongside
 * threads whose original warps are CPM-affine, opening a new dynamic
 * warp otherwise - possibly executing more warps but with lower page
 * divergence (Fig. 19).
 */

#ifndef TBC_COMPACTOR_HH
#define TBC_COMPACTOR_HH

#include <array>
#include <bitset>
#include <vector>

#include "gpu/simt_stack.hh"
#include "tbc/cpm.hh"

namespace gpummu {

/** Maximum threads per block supported by the TBC machinery. */
inline constexpr unsigned kMaxBlockThreads = 1024;

using BlockMask = std::bitset<kMaxBlockThreads>;

/** One compacted dynamic warp: per-lane thread index within the
 *  block, -1 for an idle lane. */
struct CompactedWarp
{
    std::array<int, kWarpWidth> laneThread;

    CompactedWarp() { laneThread.fill(-1); }

    unsigned
    activeLanes() const
    {
        unsigned n = 0;
        for (int t : laneThread)
            n += (t >= 0);
        return n;
    }
};

/**
 * Compact the active threads of @p mask into dynamic warps.
 *
 * @param mask        block-wide active mask (bit = thread-in-block)
 * @param num_threads threads in the block
 * @param cpm         when non-null, apply the TLB-aware admission
 *                    rule using original warp ids
 * @param warp_base   core-level id of the block's first static warp
 *                    (original warp id = warp_base + tid/32)
 *
 * At most one dynamic warp is formed per original warp with a thread
 * in @p mask, so never more than the block's static warps. Each
 * dynamic warp takes every remaining thread of m, the smallest
 * original warp among its members. Take m's remaining thread in lane
 * l. Lane l's queue is in thread order, so only threads of warps
 * below m precede it, and none of them is taken: its warp would be a
 * member below m. The members are pairwise CPM-affine (each was
 * admitted affine with those before it, and affinity is symmetric:
 * bump() raises both counters and a flush clears both), so m is
 * affine with every member admitted so far, and its thread is the
 * first admissible candidate of lane l. The TLB-agnostic compactor
 * takes every queue's front, so the same holds. Each dynamic warp
 * thus empties one original warp that still had threads.
 */
std::vector<CompactedWarp>
compactThreads(const BlockMask &mask, unsigned num_threads,
               const CommonPageMatrix *cpm, int warp_base);

} // namespace gpummu

#endif // TBC_COMPACTOR_HH
