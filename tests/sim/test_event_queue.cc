/** @file Tests for the discrete-event queue. */

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace gaia {
namespace {

/** Sink that records each event's tag and the time it fired at. */
struct Recorder : EventQueue::Sink
{
    explicit Recorder(EventQueue &queue) : queue(queue) {}

    void
    onEvent(const SimEvent &event) override
    {
        kinds.push_back(event.kind);
        payloads.push_back(event.a);
        times.push_back(queue.now());
    }

    EventQueue &queue;
    std::vector<std::uint32_t> kinds;
    std::vector<std::uint32_t> payloads;
    std::vector<Seconds> times;
};

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(30, SimEvent{0, 3, 0});
    q.schedule(10, SimEvent{0, 1, 0});
    q.schedule(20, SimEvent{0, 2, 0});
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TiesRunInSchedulingOrder)
{
    EventQueue q;
    Recorder sink(q);
    for (std::uint32_t i = 0; i < 10; ++i)
        q.schedule(5, SimEvent{0, i, 0});
    q.runAll(sink);
    for (std::uint32_t i = 0; i < 10; ++i)
        EXPECT_EQ(sink.payloads[i], i);
}

TEST(EventQueue, PayloadsRoundTrip)
{
    struct Capture : EventQueue::Sink
    {
        SimEvent seen;
        void onEvent(const SimEvent &event) override
        {
            seen = event;
        }
    };
    EventQueue q;
    Capture sink;
    q.schedule(7, SimEvent{42, 0xdeadbeefu, -123456789012345});
    q.runAll(sink);
    EXPECT_EQ(sink.seen.kind, 42u);
    EXPECT_EQ(sink.seen.a, 0xdeadbeefu);
    EXPECT_EQ(sink.seen.b, -123456789012345);
}

TEST(EventQueue, HandlersMayScheduleMoreEvents)
{
    /** Each event chains the next one 100s later, twice. */
    struct Chainer : EventQueue::Sink
    {
        explicit Chainer(EventQueue &queue) : queue(queue) {}
        void
        onEvent(const SimEvent &event) override
        {
            times.push_back(queue.now());
            if (event.a < 2)
                queue.schedule(queue.now() + 100,
                               SimEvent{0, event.a + 1, 0});
        }
        EventQueue &queue;
        std::vector<Seconds> times;
    };
    EventQueue q;
    Chainer sink(q);
    q.schedule(0, SimEvent{0, 0, 0});
    q.runAll(sink);
    EXPECT_EQ(sink.times, (std::vector<Seconds>{0, 100, 200}));
}

TEST(EventQueue, SchedulingAtCurrentTimeAllowed)
{
    /** The first event schedules a same-time follow-up. */
    struct SameTime : EventQueue::Sink
    {
        explicit SameTime(EventQueue &queue) : queue(queue) {}
        void
        onEvent(const SimEvent &event) override
        {
            if (event.kind == 0)
                queue.schedule(queue.now(), SimEvent{1, 0, 0});
            else
                ++hits;
        }
        EventQueue &queue;
        int hits = 0;
    };
    EventQueue q;
    SameTime sink(q);
    q.schedule(50, SimEvent{0, 0, 0});
    q.runAll(sink);
    EXPECT_EQ(sink.hits, 1);
}

TEST(EventQueue, RunNextAndCounters)
{
    EventQueue q;
    Recorder sink(q);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runNext(sink));
    q.schedule(1, SimEvent{});
    q.schedule(2, SimEvent{});
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_TRUE(q.runNext(sink));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.now(), 1);
}

TEST(EventQueue, ReserveDoesNotDisturbPendingEvents)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(10, SimEvent{0, 1, 0});
    q.scheduleSequential(20, 0, SimEvent{0, 2, 0});
    q.reserveSequential(1024);
    q.schedule(5, SimEvent{0, 0, 0});
    q.scheduleSequential(30, 0, SimEvent{0, 3, 0});
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventQueue, SequentialLaneMergesWithHeapInGlobalOrder)
{
    EventQueue q;
    Recorder sink(q);
    // Sorted feed through the staged lane, interleaved with heap
    // entries at overlapping and identical timestamps.
    q.scheduleSequential(10, 0, SimEvent{0, 1, 0});
    q.schedule(10, SimEvent{0, 2, 0});  // same time, prio 1: after
    q.scheduleSequential(20, 0, SimEvent{0, 4, 0});
    q.schedule(15, SimEvent{0, 3, 0});
    q.scheduleSequential(20, 0, SimEvent{0, 5, 0}); // tie: feed order
    q.schedule(25, SimEvent{0, 6, 0});
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SequentialLaneAcceptsOutOfOrderFallback)
{
    EventQueue q;
    Recorder sink(q);
    q.scheduleSequential(30, 0, SimEvent{0, 2, 0});
    // Earlier than the staged tail: falls back to the heap but must
    // still dispatch in time order.
    q.scheduleSequential(10, 0, SimEvent{0, 1, 0});
    q.scheduleSequential(40, 0, SimEvent{0, 3, 0});
    EXPECT_EQ(q.pendingCount(), 3u);
    EXPECT_EQ(q.nextEventTime(), 10);
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(EventQueue, RunUntilCoversTheSequentialLane)
{
    EventQueue q;
    Recorder sink(q);
    for (Seconds t : {10, 20, 30})
        q.scheduleSequential(t, 0, SimEvent{});
    q.runUntil(20, sink);
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 20}));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.nextEventTime(), 30);
    q.runUntil(30, sink);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeath, PastSchedulingRejected)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(100, SimEvent{});
    q.runAll(sink);
    EXPECT_DEATH(q.schedule(50, SimEvent{}), "into the past");
}

TEST(EventQueue, PriorityBreaksTimestampTies)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(10, SimEvent{0, 2, 0});    // default prio 1
    q.schedule(10, 0, SimEvent{0, 1, 0}); // prio 0
    q.schedule(10, 2, SimEvent{0, 3, 0}); // prio 2
    q.schedule(5, 9, SimEvent{0, 0, 0});  // earlier time wins
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    Recorder sink(q);
    for (Seconds t : {10, 20, 30, 40})
        q.schedule(t, SimEvent{});
    q.runUntil(25, sink);
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 20}));
    EXPECT_EQ(q.now(), 25);
    EXPECT_EQ(q.nextEventTime(), 30);
    q.runUntil(100, sink);
    EXPECT_EQ(sink.times.size(), 4u);
    EXPECT_EQ(q.nextEventTime(), -1);
}

TEST(EventQueueDeath, RunUntilPastRejected)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(100, SimEvent{});
    q.runAll(sink);
    EXPECT_DEATH(q.runUntil(50, sink), "into the past");
}

} // namespace
} // namespace gaia
