/**
 * @file
 * Per-shader-core L1 data cache.
 *
 * Matches the paper's setup: 32KB, 128-byte lines, LRU, virtually
 * indexed / physically tagged (so TLB lookup overlaps set selection;
 * the timing consequences live in the MMU, the tag check here is on
 * physical line addresses). Loads allocate; stores are write-through
 * no-allocate, which is the GPGPU-Sim default for global stores.
 *
 * Each line remembers the warp that allocated it and an eviction
 * listener reports victims, which is exactly the hook cache-conscious
 * wavefront scheduling (CCWS) needs to maintain its per-warp victim
 * tag arrays.
 */

#ifndef MEM_L1_CACHE_HH
#define MEM_L1_CACHE_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "mem/request.hh"
#include "mem/set_assoc.hh"
#include "sim/stats.hh"

namespace gpummu {

struct L1CacheConfig
{
    std::size_t bytes = 32 * 1024; ///< paper: 32KB per core
    std::size_t ways = 8;
    Cycle hitLatency = 1;
    unsigned numMshrs = 96;
};

class L1Cache
{
  public:
    /** (evicted line address, warp that allocated it). */
    using EvictionListener = std::function<void(PhysAddr, int)>;

    L1Cache(const L1CacheConfig &cfg, MemorySystem &mem);

    /**
     * Timed access for one line by one warp.
     *
     * @param line_addr physical line address
     * @param is_write  store (write-through, no allocate)
     * @param now       issue cycle
     * @param warp_id   warp issuing the access (for CCWS ownership)
     */
    AccessOutcome access(PhysAddr line_addr, bool is_write, Cycle now,
                         int warp_id);

    /** Install the CCWS eviction hook (may be empty). */
    void setEvictionListener(EvictionListener fn)
    {
        onEvict_ = std::move(fn);
    }

    /** Attach an event trace sink; @p tid labels this instance. */
    void setTraceSink(TraceSink *sink, int tid)
    {
        trace_ = sink;
        traceTid_ = tid;
    }

    void flush();

    /** The shared memory system behind this cache. */
    const MemorySystem &memory() const { return mem_; }

    void regStats(StatRegistry &reg, const std::string &prefix);

    std::uint64_t accesses() const { return accesses_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const
    {
        return accesses_.value() - hits_.value();
    }
    /** Average full L1 miss latency (cycles), for Fig. 4. */
    const Histogram &missLatency() const { return missLatency_; }

    /** Garbage-collect completed MSHRs (called lazily by access). */
    void reapMshrs(Cycle now);

    /** Earliest cycle at which an outstanding fill completes (the
     *  cycle a full MSHR file frees up); kCycleNever when empty. */
    Cycle earliestMshrFree() const
    {
        return mshrHead_ == mshrTail_ ? kCycleNever : mshrReady_[mshrHead_];
    }

    /**
     * mshrFilter_ bucket of @p line in an L1 with @p num_mshrs MSHRs:
     * Fibonacci hashing into 8 buckets per MSHR, rounded up to a power
     * of two. Public so tests can aim lines at one bucket.
     */
    static std::size_t mshrFilterBucket(PhysAddr line, unsigned num_mshrs)
    {
        return (line * 0x9E3779B97F4A7C15ULL) >>
               (61 - std::bit_width(num_mshrs - 1));
    }

  private:
    struct LineInfo
    {
        int allocWarp = -1;
    };

    /** Index of the MSHR tracking @p line, or mshrTail_. */
    std::size_t findMshr(PhysAddr line) const;
    /** Track a new fill of @p line, keeping the readyAt order. */
    void insertMshr(PhysAddr line, Cycle ready_at);
    std::size_t filterIndex(PhysAddr line) const
    {
        return mshrFilterBucket(line, cfg_.numMshrs);
    }

    L1CacheConfig cfg_;
    MemorySystem &mem_;
    SetAssocArray<LineInfo> array_;
    /**
     * Outstanding fills: line/readyAt arrays whose live window
     * [mshrHead_, mshrTail_) is sorted by readyAt. The file is full in
     * steady state and each reap frees about one entry, so reap drops
     * the expired prefix and the earliest free cycle is the front. The
     * arrays hold 2 * numMshrs, so the window is compacted at most once
     * per numMshrs inserts. mshrFilter_ counts live lines per hash
     * bucket exactly; a zero bucket proves a line has no MSHR. Most
     * reads have none, so most skip the scan. A bucket never counts
     * more than numMshrs lines, so it shares numMshrs's type.
     */
    std::vector<PhysAddr> mshrLine_;
    std::vector<Cycle> mshrReady_;
    std::size_t mshrHead_ = 0;
    std::size_t mshrTail_ = 0;
    std::vector<unsigned> mshrFilter_;
    EvictionListener onEvict_;
    TraceSink *trace_ = nullptr;
    int traceTid_ = 0;

    Counter accesses_;
    Counter hits_;
    Counter mshrMerges_;
    Counter mshrStalls_;
    Counter evictions_;
    Histogram missLatency_;
};

} // namespace gpummu

#endif // MEM_L1_CACHE_HH
