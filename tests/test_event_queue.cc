/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

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
// exposes a const reference, so the old implementation deep-copied
// every Event (std::function included) before dispatching it. The
// heap is now popped with pop_heap + move-from-back; dispatch must
// perform zero copies of the stored callable.
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
