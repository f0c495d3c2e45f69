/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/event_queue.hh"

using namespace gpummu;

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, TiesRunInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.runUntil(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(11, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    eq.runUntil(11);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CallbackCanScheduleMore)
{
    EventQueue eq;
    std::vector<Cycle> fire_times;
    // A chain: each event schedules the next, 5 deep.
    std::function<void()> chain = [&]() {
        fire_times.push_back(eq.now());
        if (fire_times.size() < 5)
            eq.schedule(eq.now() + 10, chain);
    };
    eq.schedule(10, chain);
    eq.runUntil(1000);
    EXPECT_EQ(fire_times,
              (std::vector<Cycle>{10, 20, 30, 40, 50}));
}

TEST(EventQueue, SameCycleCallbackRunsWithinSameRun)
{
    EventQueue eq;
    bool inner = false;
    eq.schedule(5, [&] { eq.schedule(5, [&] { inner = true; }); });
    eq.runUntil(5);
    EXPECT_TRUE(inner);
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventCycle(), kCycleNever);
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.nextEventCycle(), 42u);
}

TEST(EventQueue, SizeAndEmpty)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.runUntil(3);
    EXPECT_TRUE(eq.empty());
}

namespace {

/** Callable that counts copy-constructions of itself. */
struct CopyCounter
{
    int *copies;
    std::vector<int> *order;
    int id;

    CopyCounter(int *c, std::vector<int> *o, int i)
        : copies(c), order(o), id(i)
    {
    }
    CopyCounter(const CopyCounter &other)
        : copies(other.copies), order(other.order), id(other.id)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&) = default;
    void operator()() const { order->push_back(id); }
};

} // namespace

// Regression for the runUntil copy bug: priority_queue::top() only
// exposes a const reference, so an early implementation deep-copied
// every Event (std::function included) before dispatching it. The
// queue now moves each callback out of its wheel slot (or off the
// back of the far heap) before calling it; dispatch must perform zero
// copies of the stored callable.
TEST(EventQueue, DispatchMovesCallbacksWithoutCopying)
{
    EventQueue eq;
    int copies = 0;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(static_cast<Cycle>(1 + i % 4),
                    CopyCounter(&copies, &order, i));
    // Wrapping the callable in std::function may copy during
    // scheduling; only dispatch is under test.
    const int copies_after_schedule = copies;
    eq.runUntil(10);
    EXPECT_EQ(order.size(), 16u);
    EXPECT_EQ(copies, copies_after_schedule)
        << "runUntil copied callbacks instead of moving them";
}

// Same-cycle events keep FIFO order even when interleaved with other
// cycles and when callbacks append more same-cycle events mid-run.
TEST(EventQueue, SameCycleFifoWithCallbackScheduledEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(50); });
    eq.schedule(3, [&] {
        order.push_back(30);
        // Scheduled *during* cycle 3: must run after every event
        // already queued for cycle 3, before cycle 5.
        eq.schedule(3, [&] { order.push_back(33); });
        eq.schedule(5, [&] { order.push_back(52); });
    });
    eq.schedule(5, [&] { order.push_back(51); });
    eq.schedule(3, [&] { order.push_back(31); });
    eq.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{30, 31, 33, 50, 51, 52}));
}

TEST(EventQueue, EventsFiredCountsDispatchedEvents)
{
    EventQueue eq;
    EXPECT_EQ(eq.eventsFired(), 0u);
    eq.schedule(1, [] {});
    eq.schedule(1, [&] { eq.schedule(1, [] {}); });
    eq.schedule(9, [] {});
    eq.runUntil(5);
    EXPECT_EQ(eq.eventsFired(), 3u) << "the cycle-9 event is pending";
    eq.runUntil(9);
    EXPECT_EQ(eq.eventsFired(), 4u);
}

TEST(EventQueue, FarEventPrecedesLaterNearEventForItsCycle)
{
    // A is due 2000 cycles ahead, past the 1024-cycle wheel, so it
    // waits in the far heap. B is scheduled for the same cycle once it
    // is near, C by A's callback: order is scheduling order.
    EventQueue eq;
    std::vector<char> order;
    eq.schedule(2000, [&] {
        order.push_back('A');
        eq.schedule(2000, [&] { order.push_back('C'); });
    });
    eq.schedule(1024, [&] { order.push_back('x'); });
    eq.schedule(1023, [&] { order.push_back('w'); });
    eq.runUntil(1000);
    EXPECT_EQ(eq.nextEventCycle(), 1023u);
    eq.schedule(2000, [&] { order.push_back('B'); });
    eq.runUntil(1999);
    EXPECT_EQ(order, (std::vector<char>{'w', 'x'}));
    EXPECT_EQ(eq.nextEventCycle(), 2000u);
    EXPECT_EQ(eq.size(), 2u);
    eq.runUntil(2000);
    EXPECT_EQ(order, (std::vector<char>{'w', 'x', 'A', 'B', 'C'}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventCycle(), kCycleNever);
}

namespace {

/**
 * Differential model: a (when, seq) binary heap of event ids, the
 * queue's contract written the obvious way. Every event is scheduled
 * on both; the queue's callbacks pop the model in lockstep, so firing
 * order, size(), empty() and nextEventCycle() are compared at every
 * dispatch as well as after every top-level step.
 */
class Lockstep
{
  public:
    explicit Lockstep(std::uint64_t seed) : rng_(seed) {}

    /** A delta from 0 to about five wheel spans (the wheel is 1024
     *  cycles), weighted toward its edges. */
    Cycle
    delta()
    {
        switch (pick(8)) {
        case 0:
            return 0;
        case 1:
            return 1 + pick(8);
        case 2:
            return 1020 + pick(8);
        case 3:
            return pick(5 * 1024 + 64);
        case 4:
            return 2048 + pick(3) - 1;
        default:
            return 1 + pick(1023);
        }
    }

    void
    schedule(Cycle when)
    {
        const int id = nextId_++;
        ref_.push_back(Ref{when, refSeq_++, id});
        std::push_heap(ref_.begin(), ref_.end(), Ref::Later{});
        eq.schedule(when, [this, id] { fired(id); });
    }

    /** Compare every observer with the model. */
    void
    check(const char *where)
    {
        SCOPED_TRACE(where);
        ASSERT_EQ(eq.size(), ref_.size());
        ASSERT_EQ(eq.empty(), ref_.empty());
        ASSERT_EQ(eq.nextEventCycle(),
                  ref_.empty() ? kCycleNever : ref_.front().when);
        ASSERT_EQ(eq.eventsFired(), order.size());
    }

    /** True if no modelled event is due at or before @p upto. */
    bool
    drainedTo(Cycle upto) const
    {
        return ref_.empty() || ref_.front().when > upto;
    }

    std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

    EventQueue eq;
    std::vector<int> order;

  private:
    struct Ref
    {
        Cycle when;
        std::uint64_t seq;
        int id;

        struct Later
        {
            bool
            operator()(const Ref &a, const Ref &b) const
            {
                if (a.when != b.when)
                    return a.when > b.when;
                return a.seq > b.seq;
            }
        };
    };

    void
    fired(int id)
    {
        ASSERT_FALSE(ref_.empty()) << "event " << id << " not modelled";
        std::pop_heap(ref_.begin(), ref_.end(), Ref::Later{});
        const Ref want = ref_.back();
        ref_.pop_back();
        ASSERT_EQ(id, want.id) << "out of (when, seq) order";
        ASSERT_EQ(eq.now(), want.when);
        order.push_back(id);
        check("in a callback");
        // Spawn 0, 0, 1 or 2 events (0.75 on average, so cascades
        // die out): same-cycle, near and far ones alike.
        const std::uint64_t spawn = pick(4) * 2 / 3;
        for (std::uint64_t i = 0; i < spawn; ++i)
            schedule(eq.now() + delta());
    }

    std::mt19937_64 rng_;
    std::vector<Ref> ref_;
    std::uint64_t refSeq_ = 0;
    int nextId_ = 0;
};

} // namespace

TEST(EventQueue, MatchesReferenceHeap)
{
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        SCOPED_TRACE(seed);
        Lockstep ls(seed);
        for (int step = 0; step < 400; ++step) {
            EventQueue &eq = ls.eq;
            const std::uint64_t op = ls.pick(10);
            if (op < 5) {
                ls.schedule(eq.now() + ls.delta());
            } else {
                // Short steps, steps to the next event, and steps
                // longer than the whole wheel.
                Cycle upto = eq.now() + ls.pick(40);
                if (op == 8 && !eq.empty())
                    upto = eq.nextEventCycle();
                else if (op == 9)
                    upto = eq.now() + 1024 + ls.pick(4 * 1024);
                eq.runUntil(upto);
                ASSERT_EQ(eq.now(), upto);
                ASSERT_TRUE(ls.drainedTo(upto));
            }
            ls.check("after a step");
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // Drain whatever is left, every event exactly once.
        while (!ls.eq.empty())
            ls.eq.runUntil(ls.eq.nextEventCycle());
        ls.check("after the drain");
        std::vector<int> ids = ls.order;
        std::sort(ids.begin(), ids.end());
        for (std::size_t i = 0; i < ids.size(); ++i)
            ASSERT_EQ(ids[i], static_cast<int>(i));
    }
}

TEST(EventQueue, WakeBoardHoldsAPostedIdOnce)
{
    EventQueue eq;
    for (int k = 0; k < 1000; ++k)
        eq.postWake(7);
    eq.postWake(3);
    eq.postWake(7);
    std::vector<std::uint32_t> drained;
    auto record = [&](std::uint32_t id) { drained.push_back(id); };
    eq.drainWakes(record);
    EXPECT_EQ(drained, (std::vector<std::uint32_t>{7, 3}));

    // A drain empties the board; an id posted again while it is
    // drained waits for the next drain.
    drained.clear();
    eq.postWake(5);
    eq.drainWakes([&](std::uint32_t id) {
        record(id);
        eq.postWake(id);
    });
    EXPECT_EQ(drained, std::vector<std::uint32_t>{5});
    drained.clear();
    eq.drainWakes(record);
    EXPECT_EQ(drained, std::vector<std::uint32_t>{5});
    drained.clear();
    eq.drainWakes(record);
    EXPECT_TRUE(drained.empty());
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.runUntil(50);
    EXPECT_DEATH(eq.schedule(49, [] {}), "past");
}

TEST(EventQueueDeathTest, ReenteringRunUntilFromCallbackPanics)
{
    EventQueue eq;
    eq.schedule(3, [&] { eq.runUntil(10); });
    EXPECT_DEATH(eq.runUntil(5), "re-entered");
}
