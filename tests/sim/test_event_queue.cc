/** @file Tests for the discrete-event queue. */

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace gaia {
namespace {

/** Tag the Recorder logs for an arrival (events use small tags). */
constexpr std::uint32_t kArrived = 99;

/** Sink that records each event's tag (kArrived for an arrival), its
 *  payload (the job index for an arrival) and the time it fired at. */
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

    void
    onArrival(std::uint32_t job) override
    {
        kinds.push_back(kArrived);
        payloads.push_back(job);
        times.push_back(queue.now());
    }

    EventQueue &queue;
    std::vector<std::uint32_t> kinds;
    std::vector<std::uint32_t> payloads;
    std::vector<Seconds> times;
};

/** A job column whose job i is submitted at submits[i]. */
std::vector<Job>
column(std::initializer_list<Seconds> submits)
{
    std::vector<Job> jobs;
    for (Seconds submit : submits)
        jobs.push_back({static_cast<JobId>(jobs.size()), submit, 60, 1});
    return jobs;
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(30, 1, SimEvent{0, 3, 0});
    q.schedule(10, 1, SimEvent{0, 1, 0});
    q.schedule(20, 1, SimEvent{0, 2, 0});
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
        q.schedule(5, 1, SimEvent{0, i, 0});
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
        void onArrival(std::uint32_t) override {}
    };
    EventQueue q;
    Capture sink;
    q.schedule(7, 1, SimEvent{42, 0xdeadbeefu, -123456789012345});
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
                queue.schedule(queue.now() + 100, 1,
                               SimEvent{0, event.a + 1, 0});
        }
        void onArrival(std::uint32_t) override {}
        EventQueue &queue;
        std::vector<Seconds> times;
    };
    EventQueue q;
    Chainer sink(q);
    q.schedule(0, 1, SimEvent{0, 0, 0});
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
                queue.schedule(queue.now(), 1, SimEvent{1, 0, 0});
            else
                ++hits;
        }
        void onArrival(std::uint32_t) override {}
        EventQueue &queue;
        int hits = 0;
    };
    EventQueue q;
    SameTime sink(q);
    q.schedule(50, 1, SimEvent{0, 0, 0});
    q.runAll(sink);
    EXPECT_EQ(sink.hits, 1);
}

TEST(EventQueue, RunNextAndCounters)
{
    EventQueue q;
    Recorder sink(q);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runNext(sink));
    q.schedule(1, 1, SimEvent{});
    q.schedule(2, 1, SimEvent{});
    EXPECT_EQ(q.pendingCount(), 2u);
    EXPECT_TRUE(q.runNext(sink));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.now(), 1);
}

TEST(EventQueue, ArrivalLaneMergesWithHeapInGlobalOrder)
{
    // Jobs 1 and 4 are delayed past their submit times, so they wait
    // in the heap; the rest wait in the lane, job 0 as one run and
    // jobs 2 and 3 as another. At one instant every arrival runs
    // before every event, and arrivals run in job order whichever
    // side holds them.
    const std::vector<Job> jobs = column({10, 10, 15, 20, 12});
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    q.scheduleArrival(0, 10);
    q.schedule(10, 1, SimEvent{0, 100, 0}); // same time, an event
    q.scheduleArrival(1, 15);               // delayed: heap
    q.scheduleArrival(2, 15);
    q.schedule(15, 1, SimEvent{0, 101, 0});
    q.scheduleArrival(3, 20);
    q.scheduleArrival(4, 20); // delayed: heap, after job 3
    EXPECT_EQ(q.laneRuns(), 2u);
    EXPECT_EQ(q.pendingCount(), 7u);
    q.runAll(sink);
    EXPECT_EQ(sink.kinds,
              (std::vector<std::uint32_t>{kArrived, 0, kArrived,
                                          kArrived, 0, kArrived,
                                          kArrived}));
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{0, 100, 1, 2, 101, 3, 4}));
    EXPECT_EQ(sink.times,
              (std::vector<Seconds>{10, 10, 15, 15, 15, 20, 20}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ArrivalsEarlierThanTheLaneTailFallBackToTheHeap)
{
    // A streamed submit earlier than the lane's last arrival cannot
    // join the lane, which stays sorted; the heap dispatches it at
    // the right point.
    const std::vector<Job> jobs = column({30, 10, 40});
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    q.scheduleArrival(0, 30);
    q.scheduleArrival(1, 10);
    q.scheduleArrival(2, 40);
    EXPECT_EQ(q.laneRuns(), 2u);
    EXPECT_EQ(q.pendingCount(), 3u);
    q.runAll(sink);
    EXPECT_EQ(sink.payloads, (std::vector<std::uint32_t>{1, 0, 2}));
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 30, 40}));
}

TEST(EventQueue, RunUntilCoversTheArrivalLane)
{
    const std::vector<Job> jobs = column({10, 20, 30});
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    for (std::uint32_t job = 0; job < jobs.size(); ++job)
        q.scheduleArrival(job, jobs[job].submit);
    q.runUntil(20, sink);
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 20}));
    EXPECT_EQ(q.pendingCount(), 1u);
    q.runUntil(30, sink);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.laneRuns(), 0u);
}

TEST(EventQueue, ASortedReplayIsOneRun)
{
    // Three jobs a second, in submit order: every arrival continues
    // the lane's one run, however many there are.
    constexpr std::uint32_t kJobs = 100000;
    std::vector<Job> jobs;
    jobs.reserve(kJobs);
    for (std::uint32_t i = 0; i < kJobs; ++i)
        jobs.push_back({i, static_cast<Seconds>(i / 3), 60, 1});
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    for (std::uint32_t i = 0; i < kJobs; ++i)
        q.scheduleArrival(i, jobs[i].submit);
    EXPECT_EQ(q.laneRuns(), 1u);
    EXPECT_EQ(q.pendingCount(), kJobs);
    q.runAll(sink);
    ASSERT_EQ(sink.payloads.size(), kJobs);
    for (std::uint32_t i = 0; i < kJobs; ++i) {
        ASSERT_EQ(sink.payloads[i], i);
        ASSERT_EQ(sink.times[i], jobs[i].submit);
    }
    EXPECT_EQ(q.laneRuns(), 0u);
}

TEST(EventQueue, ADelayedArrivalSplitsTheLaneAroundIt)
{
    // Job 2 is delayed from 30 to 40, so it waits in the heap and
    // the lane holds jobs 0-1 and 3-4 as two runs. It still runs in
    // (time, index) order: before job 3, its equal-time successor.
    const std::vector<Job> jobs = column({10, 20, 30, 40, 50});
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    q.scheduleArrival(0, 10);
    q.scheduleArrival(1, 20);
    q.scheduleArrival(2, 40); // delayed: heap
    q.scheduleArrival(3, 40);
    q.scheduleArrival(4, 50);
    EXPECT_EQ(q.laneRuns(), 2u);
    EXPECT_EQ(q.pendingCount(), 5u);
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 20, 40, 40, 50}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ArrivalLaneDropsItsConsumedPrefix)
{
    // A stream that never lets the lane drain: each arrival is
    // submitted ten seconds ahead of the clock, and only every other
    // job of the column arrives, so each arrival is a run of its own.
    // The lane holds its pending runs plus a consumed prefix shorter
    // than them, not every run it ever saw, and the column may grow
    // meanwhile.
    std::vector<Job> jobs;
    jobs.reserve(1); // growth relocates the column's elements
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    for (std::uint32_t i = 0; i < 1000; ++i) {
        jobs.push_back({i, static_cast<Seconds>(i), 60, 1});
        if (i % 2 == 0)
            q.scheduleArrival(i, i);
        if (i >= 10)
            q.runUntil(i - 10, sink);
        ASSERT_LE(q.laneRuns(), 2 * q.pendingCount()) << i;
    }
    EXPECT_EQ(q.pendingCount(), 5u);
    EXPECT_LE(q.laneRuns(), 10u);
    q.runAll(sink);
    ASSERT_EQ(sink.payloads.size(), 500u);
    for (std::uint32_t k = 0; k < 500; ++k)
        ASSERT_EQ(sink.payloads[k], 2 * k);
    EXPECT_EQ(q.laneRuns(), 0u);
}

TEST(EventQueueDeath, PastSchedulingRejected)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(100, 1, SimEvent{});
    q.runAll(sink);
    EXPECT_DEATH(q.schedule(50, 1, SimEvent{}), "into the past");
}

TEST(EventQueue, PriorityBreaksTimestampTies)
{
    const std::vector<Job> jobs = column({10});
    EventQueue q;
    q.bindArrivals(jobs);
    Recorder sink(q);
    q.schedule(10, 2, SimEvent{0, 3, 0});
    q.schedule(10, 1, SimEvent{0, 2, 0});
    q.schedule(10, 3, SimEvent{0, 4, 0});
    q.scheduleArrival(0, 10); // an arrival outranks every priority
    q.schedule(5, 9, SimEvent{0, 1, 0}); // earlier time wins
    q.runAll(sink);
    EXPECT_EQ(sink.payloads,
              (std::vector<std::uint32_t>{1, 0, 2, 3, 4}));
    EXPECT_EQ(sink.kinds[1], kArrived);
}

TEST(EventQueueDeath, PriorityZeroBelongsToArrivals)
{
    EventQueue q;
    EXPECT_DEATH(q.schedule(10, 0, SimEvent{}),
                 "priority out of \\[1, 256\\)");
    EXPECT_DEATH(q.scheduleArrival(0, 10),
                 "outside the arrival column");
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue q;
    Recorder sink(q);
    for (Seconds t : {10, 20, 30, 40})
        q.schedule(t, 1, SimEvent{});
    q.runUntil(25, sink);
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 20}));
    EXPECT_EQ(q.now(), 25);
    q.runUntil(100, sink);
    EXPECT_EQ(sink.times, (std::vector<Seconds>{10, 20, 30, 40}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeath, RunUntilPastRejected)
{
    EventQueue q;
    Recorder sink(q);
    q.schedule(100, 1, SimEvent{});
    q.runAll(sink);
    EXPECT_DEATH(q.runUntil(50, sink), "into the past");
}

} // namespace
} // namespace gaia
