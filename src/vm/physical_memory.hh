/**
 * @file
 * Physical frame allocator for the simulated machine.
 *
 * Frames are 4KB. Allocation is a bump pointer with an optional
 * scramble so that consecutive virtual pages do not trivially map to
 * consecutive physical frames (page-walk line sharing depends only on
 * PTE addresses, so scrambling does not perturb the walk-scheduler
 * results, but it keeps L2 set pressure honest).
 */

#ifndef VM_PHYSICAL_MEMORY_HH
#define VM_PHYSICAL_MEMORY_HH

#include <cstdint>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace gpummu {

class PhysicalMemory
{
  public:
    /**
     * @param num_frames  total 4KB frames backing the machine
     * @param scramble    permute allocation order pseudo-randomly
     * @param seed        scramble seed
     */
    explicit PhysicalMemory(std::uint64_t num_frames,
                            bool scramble = true,
                            std::uint64_t seed = 0x9e3779b9ULL)
        : numFrames_(num_frames), scramble_(scramble), seed_(seed)
    {
        maskBits_ = 1;
        while ((1ULL << maskBits_) < num_frames)
            ++maskBits_;
    }

    /** Allocate one 4KB frame. */
    Ppn
    allocFrame()
    {
        if (nextFrame_ >= numFrames_)
            outOfMemory();
        const std::uint64_t seq = nextFrame_++;
        return scramble_ ? permute(seq) : seq;
    }

    /**
     * Allocate 512 contiguous frames aligned to 2MB, for large pages.
     * The chunk is contiguous by construction, so large-page
     * allocations bypass the scramble.
     */
    Ppn
    allocLargeFrame()
    {
        const std::uint64_t frames_per_large = kPageSize2M / kPageSize4K;
        std::uint64_t base = (nextFrame_ + frames_per_large - 1) &
                             ~(frames_per_large - 1);
        if (base + frames_per_large > numFrames_)
            outOfMemory();
        nextFrame_ = base + frames_per_large;
        return base;
    }

    std::uint64_t numFrames() const { return numFrames_; }
    std::uint64_t framesAllocated() const { return nextFrame_; }

  private:
    /** The workload needs more frames than the config provides. */
    [[noreturn]] void
    outOfMemory() const
    {
        GPUMMU_FATAL("out of physical memory: physFrames (", numFrames_,
                     ") is too small for the workload");
    }

    /**
     * Format-preserving permutation of [0, numFrames) built from a
     * bijective mix on the enclosing power of two plus cycle walking:
     * out-of-range intermediate values are re-mixed until they land
     * in range. Multiplication by an odd constant and xor-shift are
     * both bijective modulo 2^k, so the composition is a true
     * permutation and allocFrame never hands out the same frame
     * twice.
     */
    Ppn
    permute(std::uint64_t seq) const
    {
        const std::uint64_t mask = (maskBits_ >= 64)
                                       ? ~0ULL
                                       : ((1ULL << maskBits_) - 1);
        std::uint64_t x = seq;
        do {
            x = (x * 0x9e3779b97f4a7c15ULL + seed_) & mask;
            x ^= x >> (maskBits_ / 2 + 1);
            x = (x * 0xbf58476d1ce4e5b9ULL) & mask;
        } while (x >= numFrames_);
        return x;
    }

    std::uint64_t numFrames_;
    bool scramble_;
    std::uint64_t seed_;
    unsigned maskBits_;
    std::uint64_t nextFrame_ = 0;
};

} // namespace gpummu

#endif // VM_PHYSICAL_MEMORY_HH
