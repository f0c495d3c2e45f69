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
    Cycle earliestMshrFree() const;

  private:
    struct LineInfo
    {
        int allocWarp = -1;
    };

    /** One outstanding line fill. */
    struct Mshr
    {
        PhysAddr line;
        Cycle readyAt;
    };

    /** Iterator to the MSHR tracking @p line, or end(). */
    std::vector<Mshr>::iterator findMshr(PhysAddr line);

    L1CacheConfig cfg_;
    MemorySystem &mem_;
    SetAssocArray<LineInfo> array_;
    /**
     * Outstanding line fills, sorted by line address. A flat sorted
     * vector (capacity reserved to numMshrs up front) beats the old
     * unordered_map here: the file holds at most ~96 entries, every
     * miss did a node allocation, and the per-access find dominated.
     * Binary search + memmove on so few POD entries is cheaper and
     * allocation-free.
     */
    std::vector<Mshr> mshrs_;
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
