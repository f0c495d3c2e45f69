/**
 * @file
 * A minimal discrete event queue.
 *
 * Cores tick cycle by cycle; latency through the memory system is
 * modelled with completion events. Events scheduled for the same
 * cycle fire in scheduling order (a monotonic sequence number breaks
 * ties) so simulation stays deterministic.
 *
 * Two hot-path mechanisms keep dispatch cheap:
 *
 *  - Same-cycle batch drain: runUntil() pulls every event of the
 *    front cycle into a drain buffer in one pass (pop_heap yields
 *    them in seq order, so the buffer needs no sort) and fires from
 *    the buffer. Events a callback schedules for the *current* cycle
 *    append straight onto the buffer - O(1) instead of a heap
 *    push/pop round trip - which is exactly the common case of
 *    completion cascades. Firing order is identical to the old
 *    one-pop-per-event loop: drained events hold every seq smaller
 *    than any event scheduled during dispatch.
 *
 *  - Raw callback events: scheduleRaw() takes a plain function
 *    pointer plus a context pointer, so per-cycle machinery (the
 *    page-walk level chain, arena-backed completion nodes) never
 *    touches std::function's allocating type erasure. Both event
 *    kinds share one (when, seq) ordering domain.
 *
 * The heap is managed directly with std::push_heap / std::pop_heap
 * rather than std::priority_queue: priority_queue::top() returns a
 * const reference, which forces a deep copy of the std::function
 * callback for every fired event. pop_heap moves the top element to
 * the back of the vector, from where the event (and its callback)
 * can genuinely be moved out before dispatch.
 */

#ifndef SIM_EVENT_QUEUE_HH
#define SIM_EVENT_QUEUE_HH

#include <algorithm>
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
    /** Raw event callback: (context, fire cycle). */
    using RawFn = void (*)(void *ctx, Cycle now);

    /** Schedule cb to run at cycle when (must not be in the past). */
    void
    schedule(Cycle when, Callback cb)
    {
        GPUMMU_ASSERT(when >= now_, "scheduling into the past");
        if (draining_ && when == now_) {
            // Same-cycle fast path: the drain loop below is still
            // consuming the buffer in index order, and every drained
            // event carries a smaller seq, so appending preserves
            // the (when, seq) firing order exactly.
            drain_.push_back(
                Event{when, nextSeq_++, nullptr, nullptr,
                      std::move(cb)});
            return;
        }
        heap_.push_back(Event{when, nextSeq_++, nullptr, nullptr,
                              std::move(cb)});
        std::push_heap(heap_.begin(), heap_.end(), Event::Later{});
    }

    /**
     * Schedule a raw function-pointer event: no std::function, no
     * type erasure, no possible allocation. @p ctx is passed back to
     * @p fn together with the fire cycle; lifetime of whatever ctx
     * points at is the caller's problem (arena-backed nodes free
     * themselves from inside fn).
     */
    void
    scheduleRaw(Cycle when, RawFn fn, void *ctx)
    {
        GPUMMU_ASSERT(when >= now_, "scheduling into the past");
        GPUMMU_ASSERT(fn != nullptr);
        if (draining_ && when == now_) {
            drain_.push_back(Event{when, nextSeq_++, fn, ctx, {}});
            return;
        }
        heap_.push_back(Event{when, nextSeq_++, fn, ctx, {}});
        std::push_heap(heap_.begin(), heap_.end(), Event::Later{});
    }

    /** Current simulated cycle (last serviced time). */
    Cycle now() const { return now_; }

    bool
    empty() const
    {
        return heap_.empty() && drainPos_ >= drain_.size();
    }

    std::size_t
    size() const
    {
        return heap_.size() + (drain_.size() - drainPos_);
    }

    /** Cycle of the earliest pending event; kCycleNever when empty. */
    Cycle
    nextEventCycle() const
    {
        if (drainPos_ < drain_.size())
            return now_;
        return heap_.empty() ? kCycleNever : heap_.front().when;
    }

    /** Events dispatched over this queue's lifetime (deterministic:
     *  RunStats::eventsFired, so the replay determinism contract and
     *  perfbench's sim.events). */
    std::uint64_t eventsFired() const { return eventsFired_; }

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
        while (!heap_.empty() && heap_.front().when <= upto) {
            const Cycle t = heap_.front().when;
            // Pull the whole cycle into the drain buffer; pop_heap
            // pops in ascending (when, seq), so it lands sorted.
            drain_.clear();
            drainPos_ = 0;
            while (!heap_.empty() && heap_.front().when == t) {
                std::pop_heap(heap_.begin(), heap_.end(),
                              Event::Later{});
                drain_.push_back(std::move(heap_.back()));
                heap_.pop_back();
            }
            now_ = t;
            draining_ = true;
            // Index loop: callbacks may append same-cycle events and
            // reallocate the buffer, so move each event out first.
            for (std::size_t i = 0; i < drain_.size(); ++i) {
                Event ev = std::move(drain_[i]);
                drainPos_ = i + 1;
                ++eventsFired_;
                if (ev.raw != nullptr)
                    ev.raw(ev.ctx, now_);
                else
                    ev.cb();
                if (cleared_)
                    break;
            }
            draining_ = false;
            drain_.clear();
            drainPos_ = 0;
            if (cleared_) {
                // clear() ran from inside a callback: the queue was
                // fully reset (time included); do not advance now_.
                cleared_ = false;
                return;
            }
        }
        now_ = upto;
    }

    /**
     * Drop all pending events and reset time and the tie-break
     * counter. Test-only: production code builds a fresh EventQueue
     * per run (GpuTop owns one) and never reuses a queue across
     * kernels; nothing under src/ calls clear(). Unlike the old
     * behaviour, backing storage is released too (see shrink()), so
     * a reused queue cannot carry stale capacity forever. Safe to
     * call from inside a firing callback: the remaining events of
     * the cycle are dropped and runUntil returns without touching
     * the reset state.
     */
    void
    clear()
    {
        heap_.clear();
        if (draining_) {
            // Mid-drain: the index loop in runUntil observes the
            // emptied buffer and stops; the flag makes runUntil
            // return without overwriting the reset now_.
            cleared_ = true;
        }
        drain_.clear();
        drainPos_ = 0;
        now_ = 0;
        nextSeq_ = 0;
        eventsFired_ = 0;
        shrink();
    }

    /**
     * Release heap and drain-buffer capacity down to the live event
     * count. The buffers otherwise only grow (capacity policy:
     * high-water within a run is fine, but callers keeping a queue
     * beyond a run call shrink() - or clear(), which implies it - so
     * a burst does not pin memory forever.
     */
    void
    shrink()
    {
        heap_.shrink_to_fit();
        drain_.shrink_to_fit();
    }

    /** Backing-store capacities (capacity-policy tests). */
    std::size_t heapCapacity() const { return heap_.capacity(); }
    std::size_t drainCapacity() const { return drain_.capacity(); }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        RawFn raw;  ///< non-null for scheduleRaw events
        void *ctx;
        Callback cb;

        /** Max-heap comparator that puts the earliest event on top. */
        struct Later
        {
            bool
            operator()(const Event &a, const Event &b) const
            {
                if (a.when != b.when)
                    return a.when > b.when;
                return a.seq > b.seq;
            }
        };
    };

    std::vector<Event> heap_;
    /** Current cycle's events, in seq order; drainPos_ is the index
     *  of the next event to fire. */
    std::vector<Event> drain_;
    std::size_t drainPos_ = 0;
    bool draining_ = false;
    bool cleared_ = false;
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsFired_ = 0;
};

} // namespace gpummu

#endif // SIM_EVENT_QUEUE_HH
