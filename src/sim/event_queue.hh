/**
 * @file
 * A minimal discrete event queue.
 *
 * Cores tick cycle by cycle; latency through the memory system is
 * modelled with completion events. Events scheduled for the same
 * cycle fire in scheduling order, so simulation stays deterministic:
 * firing order is exactly (when, seq), seq being the order of the
 * schedule() calls.
 *
 * The queue is a calendar: a wheel of kWheelSpan one-cycle buckets.
 * An event due fewer than kWheelSpan cycles ahead goes to bucket
 * `when % kWheelSpan`. Pending wheel events always lie in
 * [now, now + kWheelSpan), so each bucket holds one cycle's events,
 * a FIFO list in seq order. Scheduling appends to a bucket's tail and
 * dispatch pops its head, both O(1). A callback that schedules for
 * the current cycle appends to the bucket being drained, which is
 * exactly the common case of completion cascades. A bitmap with one
 * bit per bucket finds the next occupied bucket, and the earliest
 * pending cycle is cached, so nextEventCycle() and a runUntil() with
 * nothing due are O(1).
 *
 * An event due kWheelSpan or more cycles ahead (demand-paging faults,
 * 4,000 cycles by default) goes to a small far heap ordered by
 * (when, seq) and fires from there; it never moves to the wheel. For
 * each cycle t the far events fire before t's bucket, and that keeps
 * (when, seq) order exactly: a far event for t was scheduled while
 * now <= t - kWheelSpan, and a bucket entry for t while
 * now > t - kWheelSpan, so since now only grows the far event was
 * scheduled first. No far event for t can be scheduled once t's
 * bucket has entries.
 *
 * All buckets share one slot pool: a slot holds a callback and the
 * index of the next slot in its bucket, and freed slots go on a LIFO
 * free list. The pool grows to the most events ever pending on the
 * wheel at once and is then reused; a vector per bucket would hold
 * kWheelSpan separate allocations, each sized by its own peak.
 *
 * There is one event kind, a std::function. Simulation components
 * keep each in-flight record with the component that bounds it, so
 * the hot-path events (walk levels and completions, shared L2 TLB
 * hits) capture one pointer plus at most one index: at most 16
 * trivially copyable bytes, which libstdc++ stores inline with no
 * allocation. Dispatch moves each callback out of its slot (or off
 * the back of the far heap after pop_heap) before calling it, so no
 * callback is copied and a callback may schedule into the slot it
 * just left.
 *
 * The queue also keeps the wake board of the cycle loop that runs
 * it: a callback that lowers a sleeping core's wake hint posts the
 * core's id with postWake(), and the loop re-reads the hints of the
 * posted cores only (drainWakes()). A post says only "read me"; the
 * core's wakeHint() stays the one source of its wake cycle, so a
 * stale post costs one read and changes nothing.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace gpummu {

class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() { head_.fill(kNil); }

    /** Schedule cb to run at cycle when (must not be in the past). */
    void
    schedule(Cycle when, Callback cb)
    {
        GPUMMU_ASSERT(when >= now_, "scheduling into the past");
        ++size_;
        next_ = std::min(next_, when);
        if (when - now_ >= kWheelSpan) {
            far_.push_back(FarEvent{when, farSeq_++, std::move(cb)});
            std::push_heap(far_.begin(), far_.end(), FarEvent::Later{});
            return;
        }
        std::uint32_t s = freeHead_;
        if (s != kNil) {
            freeHead_ = slots_[s].next;
            slots_[s].cb = std::move(cb);
            slots_[s].next = kNil;
        } else {
            s = static_cast<std::uint32_t>(slots_.size());
            slots_.push_back(Slot{std::move(cb), kNil});
        }
        const std::uint32_t b = bucketOf(when);
        if (head_[b] == kNil) {
            head_[b] = s;
            occupied_[b / 64] |= std::uint64_t(1) << (b % 64);
        } else {
            slots_[tail_[b]].next = s;
        }
        tail_[b] = s;
    }

    /** Current simulated cycle (last serviced time). */
    Cycle now() const { return now_; }

    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }

    /** Cycle of the earliest pending event; kCycleNever when empty. */
    Cycle nextEventCycle() const { return next_; }

    /** Events dispatched over this queue's lifetime (deterministic:
     *  RunStats::eventsFired, so the replay determinism contract and
     *  perfbench's sim.events). */
    std::uint64_t eventsFired() const { return eventsFired_; }

    /** Post core @p id on the wake board; an id already posted and
     *  not yet drained stays one entry. */
    void
    postWake(std::uint32_t id)
    {
        if (id >= posted_.size())
            posted_.resize(id + 1, 0);
        if (!posted_[id]) {
            posted_[id] = 1;
            wakes_.push_back(id);
        }
    }

    /** Call f(id) for each id posted since the last drain, in post
     *  order, and empty the board. An id f posts again stays on the
     *  board for the next drain. */
    template <typename F>
    void
    drainWakes(F &&f)
    {
        if (wakes_.empty())
            return;
        std::swap(wakes_, drainedWakes_);
        for (const std::uint32_t id : drainedWakes_) {
            posted_[id] = 0;
            f(id);
        }
        drainedWakes_.clear();
    }

    /**
     * Run every event scheduled at or before cycle `upto`, advancing
     * now() to `upto`. Not reentrant: callbacks schedule, they do
     * not run the queue.
     */
    void
    runUntil(Cycle upto)
    {
        GPUMMU_ASSERT(upto >= now_);
        GPUMMU_ASSERT(!draining_,
                      "runUntil re-entered from a callback");
        draining_ = true;
        while (next_ <= upto) {
            const Cycle t = next_;
            now_ = t;
            // Far events for t precede every bucket entry for t, and
            // none can be added while t runs.
            while (!far_.empty() && far_.front().when == t) {
                std::pop_heap(far_.begin(), far_.end(),
                              FarEvent::Later{});
                Callback cb = std::move(far_.back().cb);
                far_.pop_back();
                --size_;
                if ((far_.empty() || far_.front().when != t) &&
                    head_[bucketOf(t)] == kNil)
                    next_ = findNext();
                ++eventsFired_;
                cb();
            }
            // Callbacks may append to this bucket and grow the pool,
            // so each callback leaves its slot before it runs.
            const std::uint32_t b = bucketOf(t);
            while (head_[b] != kNil) {
                const std::uint32_t s = head_[b];
                Callback cb = std::move(slots_[s].cb);
                head_[b] = slots_[s].next;
                slots_[s].next = freeHead_;
                freeHead_ = s;
                --size_;
                if (head_[b] == kNil) {
                    occupied_[b / 64] &= ~(std::uint64_t(1) << (b % 64));
                    next_ = findNext();
                }
                ++eventsFired_;
                cb();
            }
        }
        draining_ = false;
        now_ = upto;
    }

  private:
    /** Wheel size in cycles; a power of two, so a bucket index is a
     *  mask of the cycle. */
    static constexpr std::uint32_t kWheelSpan = 1024;
    static constexpr std::uint32_t kWords = kWheelSpan / 64;
    static constexpr std::uint32_t kNil = ~std::uint32_t(0);

    struct Slot
    {
        Callback cb;
        /** Next slot in this bucket, or in the free list. */
        std::uint32_t next;
    };

    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;

        /** Max-heap comparator that puts the earliest event on top. */
        struct Later
        {
            bool
            operator()(const FarEvent &a, const FarEvent &b) const
            {
                if (a.when != b.when)
                    return a.when > b.when;
                return a.seq > b.seq;
            }
        };
    };

    static std::uint32_t
    bucketOf(Cycle when)
    {
        return static_cast<std::uint32_t>(when) & (kWheelSpan - 1);
    }

    /** Earliest pending cycle once now()'s bucket and its far events
     *  are empty: the first occupied bucket after now(), in wheel
     *  order, against the far heap's top. */
    Cycle
    findNext() const
    {
        const Cycle far = far_.empty() ? kCycleNever : far_.front().when;
        if (size_ == far_.size())
            return far; // the wheel is empty
        const std::uint32_t start = bucketOf(now_ + 1);
        std::uint32_t w = start / 64;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t(0) << (start % 64));
        // kWords + 1 words: the start word comes round again for the
        // buckets below start.
        for (std::uint32_t n = 0; n <= kWords; ++n) {
            if (bits != 0) {
                const std::uint32_t b =
                    w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
                return std::min(far,
                                now_ + 1 + ((b - start) & (kWheelSpan - 1)));
            }
            w = (w + 1) % kWords;
            bits = occupied_[w];
        }
        return far;
    }

    /** The wheel: one slot pool, each bucket a FIFO list through it. */
    std::vector<Slot> slots_;
    std::uint32_t freeHead_ = kNil;
    std::array<std::uint32_t, kWheelSpan> head_;
    std::array<std::uint32_t, kWheelSpan> tail_{};
    std::array<std::uint64_t, kWords> occupied_{};
    /** Events due kWheelSpan or more cycles ahead, a (when, seq)
     *  min-heap. */
    std::vector<FarEvent> far_;
    std::uint64_t farSeq_ = 0;
    /** Earliest pending cycle, kCycleNever when empty. */
    Cycle next_ = kCycleNever;
    std::size_t size_ = 0;
    bool draining_ = false;
    Cycle now_ = 0;
    std::uint64_t eventsFired_ = 0;
    /** The wake board: posted ids in post order, a posted flag per
     *  id, and the list drainWakes() is walking. */
    std::vector<std::uint32_t> wakes_;
    std::vector<std::uint8_t> posted_;
    std::vector<std::uint32_t> drainedWakes_;
};

} // namespace gpummu

#endif // SIM_EVENT_QUEUE_HH
