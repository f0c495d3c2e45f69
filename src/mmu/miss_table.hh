/**
 * @file
 * One flat miss table: the requesters waiting on each in-flight
 * translation, keyed by the composed VPN.
 *
 * Both shared translation structures merge concurrent misses per
 * page: the IOMMU holds the waiters of every walk in flight at the
 * controller, and the shared L2 TLB holds them behind its translation
 * MSHRs. Each live key carries its owner's Record (the IOMMU's first
 * request cycle, the L2's shootdown poison flag) and a FIFO of
 * waiters, woken together when the key's walk completes.
 *
 * Layout and invariants:
 *  - The slots form an open-addressed table of a power-of-two size,
 *    indexed by a Fibonacci hash of the key and probed linearly. A
 *    slot is live exactly when its head is not kNil; a live key always
 *    has at least one waiter. The table grows by doubling before its
 *    load would pass 3/4, so a probe always ends at a free slot.
 *  - Every live key sits in the probe run that starts at its home
 *    slot: no free slot lies between a key's home and its slot. erase
 *    keeps this by shifting later keys of the run back into the hole
 *    (backward-shift deletion), so there are no tombstones and a
 *    lookup stops at the first free slot.
 *  - Waiters live in one pooled node array, linked by index: a live
 *    slot's head..tail chain holds its waiters in arrival order, and
 *    freed nodes form a LIFO free list through the same next field.
 *    Every node made is on exactly one chain or on the free list.
 *    Moving a slot moves only its (key, head, tail, record), never a
 *    waiter. The pool grows in fixed chunks of nodes rather than by
 *    doubling one vector, so it holds at most one chunk more than
 *    the peak of waiters in flight, and a node never moves.
 *  - take() unlinks its key before it runs the first waiter and moves
 *    each waiter out of its node before the call. A waiter may add
 *    keys, join waiters and so grow either array while its own key's
 *    walk is being retired.
 *
 * Iteration (forEach) is in slot order, which depends on the hash,
 * not on the keys: callers that report a key pick the smallest.
 */

#ifndef MMU_MISS_TABLE_HH
#define MMU_MISS_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace gpummu {

template <class Waiter, class Record>
class MissTable
{
  public:
    /** Size the slots so @p max_keys live keys never grow them. */
    explicit MissTable(std::size_t max_keys = 0)
    {
        std::size_t n = kMinSlots;
        while (n * 3 < max_keys * 4)
            n *= 2;
        resize(n);
    }

    /** Live keys. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The record of live @p key, or nullptr. */
    const Record *
    find(Vpn key) const
    {
        const std::size_t i = probe(key);
        return live(i) ? &slots_[i].record : nullptr;
    }

    /**
     * Append @p w to live @p key's waiters, moving from it. Returns
     * false, and leaves @p w untouched, when @p key is not live.
     */
    bool
    join(Vpn key, Waiter &w)
    {
        const std::size_t i = probe(key);
        if (!live(i))
            return false;
        const std::uint32_t n = allocNode(std::move(w));
        next(slots_[i].tail) = n;
        slots_[i].tail = n;
        return true;
    }

    /** Make absent @p key live with record @p rec and first waiter
     *  @p w. */
    void
    open(Vpn key, Record rec, Waiter &&w)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            resize(slots_.size() * 2);
        const std::size_t i = probe(key);
        GPUMMU_ASSERT(!live(i), "miss table: key ", key,
                      " opened twice");
        const std::uint32_t n = allocNode(std::move(w));
        slots_[i] = Slot{key, n, n, std::move(rec)};
        ++size_;
    }

    /**
     * Retire live @p key: unlink it, then call @p f on each of its
     * waiters in arrival order. Returns the key's record.
     */
    template <class F>
    Record
    take(Vpn key, F &&f)
    {
        const std::size_t i = probe(key);
        GPUMMU_ASSERT(live(i), "miss table: take of key ", key,
                      " that is not live");
        std::uint32_t n = slots_[i].head;
        Record rec = std::move(slots_[i].record);
        erase(i);
        while (n != kNil) {
            Waiter w = std::move(waiter(n));
            const std::uint32_t after = next(n);
            next(n) = freeHead_;
            freeHead_ = n;
            n = after;
            f(w);
        }
        return rec;
    }

    /** Waiters queued on @p key (0 when it is not live). */
    std::size_t
    waiters(Vpn key) const
    {
        const std::size_t i = probe(key);
        std::size_t count = 0;
        for (std::uint32_t n = live(i) ? slots_[i].head : kNil; n != kNil;
             n = next(n)) {
            // A chain longer than the pool has a cycle.
            ++count;
            GPUMMU_ASSERT(count <= nodesMade_, "miss table: waiters of key ",
                          key, " form a cycle");
        }
        return count;
    }

    /** The smallest live key; the table must not be empty. */
    Vpn
    smallestKey() const
    {
        GPUMMU_ASSERT(size_ > 0);
        Vpn least = ~Vpn(0);
        forEach([&least](Vpn key, const Record &) {
            least = std::min(least, key);
        });
        return least;
    }

    /** Call @p f(key, record) on every live key, in slot order. */
    template <class F>
    void
    forEach(F &&f)
    {
        for (Slot &s : slots_)
            if (s.head != kNil)
                f(s.key, s.record);
    }

    template <class F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_)
            if (s.head != kNil)
                f(s.key, s.record);
    }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);
    static constexpr std::size_t kMinSlots = 8;
    static constexpr unsigned kChunkShift = 8;
    static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

    struct Slot
    {
        Vpn key = 0;
        /** First and last waiter node; head is kNil when free. */
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        Record record{};
    };

    /** kChunkNodes nodes: node n is (waiter[n], next[n]) of chunk
     *  n / kChunkNodes. next links the next waiter of the same key,
     *  or the next free node. */
    struct Chunk
    {
        Waiter waiter[kChunkNodes];
        std::uint32_t next[kChunkNodes];
    };

    bool live(std::size_t i) const { return slots_[i].head != kNil; }

    /** Home slot: the top bits of the key times 2^64 / phi. */
    std::size_t
    home(Vpn key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** The slot holding @p key, or the free slot that ends its run. */
    std::size_t
    probe(Vpn key) const
    {
        std::size_t i = home(key);
        while (live(i) && slots_[i].key != key)
            i = (i + 1) & mask_;
        return i;
    }

    /** Free live slot @p i, shifting the rest of its run back. */
    void
    erase(std::size_t i)
    {
        std::size_t hole = i;
        for (std::size_t j = (i + 1) & mask_; live(j);
             j = (j + 1) & mask_) {
            // The key at j may fill the hole only if its home is not
            // in (hole, j], cyclically: no key moves before its home.
            if (((j - home(slots_[j].key)) & mask_) >=
                ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].head = kNil;
        --size_;
    }

    Waiter &
    waiter(std::uint32_t n)
    {
        return chunks_[n >> kChunkShift]->waiter[n & (kChunkNodes - 1)];
    }

    std::uint32_t &
    next(std::uint32_t n)
    {
        return chunks_[n >> kChunkShift]->next[n & (kChunkNodes - 1)];
    }

    std::uint32_t
    next(std::uint32_t n) const
    {
        return chunks_[n >> kChunkShift]->next[n & (kChunkNodes - 1)];
    }

    /** A node for @p w: the free list's head, else a fresh one. */
    std::uint32_t
    allocNode(Waiter &&w)
    {
        std::uint32_t n = freeHead_;
        if (n != kNil) {
            freeHead_ = next(n);
        } else {
            n = nodesMade_++;
            if ((n & (kChunkNodes - 1)) == 0)
                chunks_.push_back(std::make_unique<Chunk>());
        }
        waiter(n) = std::move(w);
        next(n) = kNil;
        return n;
    }

    /** Rehash every live key into @p n slots (a power of two). */
    void
    resize(std::size_t n)
    {
        std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n));
        mask_ = n - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
        for (Slot &s : old)
            if (s.head != kNil)
                slots_[probe(s.key)] = std::move(s);
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
    std::size_t size_ = 0;
    /** The node pool, in fixed chunks: it grows by one chunk at a
     *  time and never moves a node. */
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::uint32_t nodesMade_ = 0;
    std::uint32_t freeHead_ = kNil;
};

} // namespace gpummu

#endif // MMU_MISS_TABLE_HH
