/**
 * @file
 * Generic set-associative array with true-LRU replacement.
 *
 * Shared by the L1/L2 data caches, the TLB, and the CCWS victim tag
 * arrays. The payload type is a template parameter; lookups report
 * the LRU depth of the hit (depth 0 = MRU), which TCWS uses to weight
 * lost-locality scores.
 *
 * Layout: one contiguous vector of numSets x ways entries, each set a
 * fixed slice of `ways` slots whose first fill-count entries are valid
 * and kept in MRU -> LRU order. A hit, insert or invalidate shifts
 * entries within the slice; nothing is allocated after construction.
 */

#ifndef MEM_SET_ASSOC_HH
#define MEM_SET_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"

namespace gpummu {

template <typename Payload>
class SetAssocArray
{
  public:
    struct Victim
    {
        std::uint64_t tag;
        Payload payload;
    };

    struct LookupResult
    {
        bool hit = false;
        /** LRU stack depth of the hit: 0 is MRU. Valid when hit. */
        unsigned depth = 0;
        Payload *payload = nullptr;
    };

    /**
     * @param num_entries total entries (must be a multiple of ways)
     * @param ways        associativity; 0 means fully associative
     */
    SetAssocArray(std::size_t num_entries, std::size_t ways)
    {
        GPUMMU_ASSERT(num_entries > 0);
        if (ways == 0 || ways > num_entries)
            ways = num_entries;
        GPUMMU_ASSERT(num_entries % ways == 0,
                      "entries ", num_entries, " not divisible by ways ",
                      ways);
        ways_ = ways;
        numSets_ = num_entries / ways;
        setMask_ = numSets_ - 1;
        entries_.resize(num_entries);
        fill_.assign(numSets_, 0);
    }

    std::size_t numSets() const { return numSets_; }
    std::size_t ways() const { return ways_; }

    /** Look up a tag and promote it to MRU on a hit. */
    LookupResult
    lookup(std::uint64_t tag)
    {
        const std::size_t s = setIndex(tag);
        Entry *set = slice(s);
        const std::size_t i = find(set, fill_[s], tag);
        if (i == fill_[s])
            return LookupResult{};
        LookupResult res;
        res.hit = true;
        res.depth = static_cast<unsigned>(i);
        promote(set, i);
        res.payload = &set[0].payload;
        return res;
    }

    /** Look up without touching LRU state (for inspection/tests). */
    const Payload *
    peek(std::uint64_t tag) const
    {
        const std::size_t s = setIndex(tag);
        const Entry *set = slice(s);
        const std::size_t i = find(set, fill_[s], tag);
        return i == fill_[s] ? nullptr : &set[i].payload;
    }

    /**
     * Insert a tag at MRU, evicting LRU if the set is full. If the
     * tag is already present it is overwritten and promoted.
     *
     * @return the evicted entry, if any.
     */
    std::optional<Victim>
    insert(std::uint64_t tag, Payload payload)
    {
        const std::size_t s = setIndex(tag);
        Entry *set = slice(s);
        std::uint32_t &n = fill_[s];
        std::size_t i = find(set, n, tag);
        std::optional<Victim> victim;
        if (i == n) {
            if (n == ways_) {
                i = n - 1;
                victim = Victim{set[i].tag, std::move(set[i].payload)};
            } else {
                i = n++;
            }
        }
        promote(set, i);
        set[0] = Entry{tag, std::move(payload)};
        return victim;
    }

    /** Remove one tag if present. @return true when it was present. */
    bool
    invalidate(std::uint64_t tag)
    {
        const std::size_t s = setIndex(tag);
        Entry *set = slice(s);
        std::uint32_t &n = fill_[s];
        const std::size_t i = find(set, n, tag);
        if (i == n)
            return false;
        std::move(set + i + 1, set + n, set + i);
        --n;
        return true;
    }

    /** Drop every entry (TLB shootdown / kernel switch). */
    void flush() { std::fill(fill_.begin(), fill_.end(), 0); }

    /**
     * Remove every entry matching pred(tag, payload) — a targeted
     * shootdown (e.g. one ASID's range). Returns the victims in
     * (set, MRU->LRU) order so callers can report each eviction;
     * surviving entries keep their LRU order.
     */
    template <typename Pred>
    std::vector<Victim>
    removeIf(Pred &&pred)
    {
        std::vector<Victim> victims;
        for (std::size_t s = 0; s < numSets_; ++s) {
            Entry *set = slice(s);
            std::size_t kept = 0;
            for (std::size_t i = 0; i < fill_[s]; ++i) {
                if (pred(set[i].tag, set[i].payload)) {
                    victims.push_back(Victim{
                        set[i].tag, std::move(set[i].payload)});
                } else {
                    if (kept != i)
                        set[kept] = std::move(set[i]);
                    ++kept;
                }
            }
            fill_[s] = static_cast<std::uint32_t>(kept);
        }
        return victims;
    }

    /** Number of currently valid entries. */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const std::uint32_t f : fill_)
            n += f;
        return n;
    }

    /**
     * Visit every valid entry as fn(set_index, tag, payload), in MRU
     * -> LRU order within each set. Read-only: invariant sweeps must
     * not disturb replacement state.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t s = 0; s < numSets_; ++s) {
            const Entry *set = slice(s);
            for (std::size_t i = 0; i < fill_[s]; ++i)
                fn(s, set[i].tag, set[i].payload);
        }
    }

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        Payload payload{};
    };

    std::size_t
    setIndex(std::uint64_t tag) const
    {
        // Both give the same set when numSets_ is a power of two.
        return (numSets_ & setMask_) == 0 ? tag & setMask_
                                          : tag % numSets_;
    }
    Entry *slice(std::size_t s) { return &entries_[s * ways_]; }
    const Entry *slice(std::size_t s) const
    {
        return &entries_[s * ways_];
    }

    /** Position of @p tag among a set's @p n valid entries, or n. */
    static std::size_t
    find(const Entry *set, std::size_t n, std::uint64_t tag)
    {
        std::size_t i = 0;
        while (i < n && set[i].tag != tag)
            ++i;
        return i;
    }

    /** Rotate set[0..i] right by one: set[i] becomes the MRU. */
    static void
    promote(Entry *set, std::size_t i)
    {
        if (i == 0)
            return;
        Entry e = std::move(set[i]);
        std::move_backward(set, set + i, set + i + 1);
        set[0] = std::move(e);
    }

    std::size_t ways_;
    std::size_t numSets_;
    std::uint64_t setMask_; ///< numSets_ - 1
    /** numSets_ x ways_ entries; set s is [s * ways_, (s+1) * ways_),
     *  its fill_[s] valid entries first, MRU -> LRU. */
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> fill_;
};

} // namespace gpummu

#endif // MEM_SET_ASSOC_HH
