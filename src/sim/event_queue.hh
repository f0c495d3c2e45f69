/**
 * @file
 * A minimal discrete event queue.
 *
 * Cores tick cycle by cycle; latency through the memory system is
 * modelled with completion events. Events scheduled for the same
 * cycle fire in scheduling order (a monotonic sequence number breaks
 * ties) so simulation stays deterministic.
 *
 * Same-cycle batch drain keeps dispatch cheap: runUntil() pulls
 * every event of the front cycle into a drain buffer in one pass
 * (pop_heap yields them in seq order, so the buffer needs no sort)
 * and fires from the buffer. Events a callback schedules for the
 * *current* cycle append straight onto the buffer - O(1) instead of
 * a heap push/pop round trip - which is exactly the common case of
 * completion cascades. Drained events hold every seq smaller than
 * any event scheduled during dispatch, so firing order is plain
 * (when, seq).
 *
 * There is one event kind, a std::function. Simulation components
 * keep each in-flight record with the component that bounds it, so
 * the hot-path events (walk levels and completions, shared L2 TLB
 * hits) capture one pointer plus at most one index: at most 16
 * trivially copyable bytes, which libstdc++ stores inline with no
 * allocation.
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
            drain_.push_back(Event{when, nextSeq_++, std::move(cb)});
            return;
        }
        heap_.push_back(Event{when, nextSeq_++, std::move(cb)});
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
                ev.cb();
            }
            draining_ = false;
            drain_.clear();
            drainPos_ = 0;
        }
        now_ = upto;
    }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;
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
    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsFired_ = 0;
};

} // namespace gpummu

#endif // SIM_EVENT_QUEUE_HH
