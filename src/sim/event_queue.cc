#include "sim/event_queue.h"

#include <limits>

#include "common/logging.h"

namespace gaia {

void
EventQueue::schedule(Seconds when, int priority, SimEvent event)
{
    GAIA_ASSERT(when >= now_, "scheduling into the past: ", when,
                " < ", now_);
    GAIA_ASSERT(priority >= 1 && priority < 256,
                "event priority out of [1, 256): ", priority);
    const std::uint64_t seq = next_seq_++;
    GAIA_ASSERT(seq < kFirstEventOrd, "event sequence counter overflow");
    heap_.push(Entry{when, (static_cast<std::uint64_t>(priority) << 56) |
                               seq,
                     event});
}

void
EventQueue::scheduleArrival(std::uint32_t job, Seconds when)
{
    GAIA_ASSERT(arrivals_ != nullptr && job < arrivals_->size(),
                "arrival of job ", job, " outside the arrival column");
    GAIA_ASSERT(when >= now_, "scheduling into the past: ", when,
                " < ", now_);
    if (when == (*arrivals_)[job].submit &&
        (lane_.empty() ||
         (job > lane_.back() && when >= laneTime(lane_.size() - 1)))) {
        lane_.push_back(job);
        return;
    }
    // Delayed, or out of order relative to the lane: the heap still
    // dispatches it at the right point.
    heap_.push(Entry{when, job, SimEvent{0, job, 0}});
}

bool
EventQueue::laneFirst() const
{
    if (lane_head_ == lane_.size())
        return false;
    if (heap_.empty())
        return true;
    const Entry &top = heap_.top();
    const Seconds time = laneTime(lane_head_);
    if (time != top.time)
        return time < top.time;
    return lane_[lane_head_] < top.ord;
}

void
EventQueue::popLane()
{
    ++lane_head_;
    // Each drop moves fewer entries than were consumed since the last
    // one, so dropping costs O(1) amortized per arrival.
    if (2 * lane_head_ >= lane_.size()) {
        lane_.erase(lane_.begin(),
                    lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
        lane_head_ = 0;
    }
}

bool
EventQueue::runNextUntil(Seconds until, Sink &sink)
{
    if (laneFirst()) {
        const Seconds time = laneTime(lane_head_);
        if (time > until)
            return false;
        const std::uint32_t job = lane_[lane_head_];
        popLane();
        now_ = time;
        sink.onArrival(job);
        return true;
    }
    if (heap_.empty() || heap_.top().time > until)
        return false;
    const Entry entry = heap_.top();
    heap_.pop();
    now_ = entry.time;
    if (entry.ord < kFirstEventOrd)
        sink.onArrival(entry.event.a);
    else
        sink.onEvent(entry.event);
    return true;
}

bool
EventQueue::runNext(Sink &sink)
{
    return runNextUntil(std::numeric_limits<Seconds>::max(), sink);
}

void
EventQueue::runAll(Sink &sink)
{
    while (runNext(sink)) {
    }
}

void
EventQueue::runUntil(Seconds until, Sink &sink)
{
    GAIA_ASSERT(until >= now_, "runUntil into the past: ", until,
                " < ", now_);
    while (runNextUntil(until, sink)) {
    }
    now_ = until;
}

} // namespace gaia
