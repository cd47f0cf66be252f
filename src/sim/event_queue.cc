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
    GAIA_ASSERT(job < kMaxJobs, "job index ", job,
                " leaves no room for its run's end");
    GAIA_ASSERT(when >= now_, "scheduling into the past: ", when,
                " < ", now_);
    if (when == submitOf(job) &&
        (lane_.empty() || (job >= lane_.back().last &&
                           when >= submitOf(lane_.back().last - 1)))) {
        if (!lane_.empty() && job == lane_.back().last)
            ++lane_.back().last;
        else
            lane_.push_back(Run{job, job + 1});
        return;
    }
    // Delayed, or out of order relative to the lane: the heap still
    // dispatches it at the right point.
    heap_.push(Entry{when, job, SimEvent{0, job, 0}});
}

std::size_t
EventQueue::pendingCount() const
{
    std::size_t pending = heap_.size();
    for (std::size_t k = lane_head_; k < lane_.size(); ++k)
        pending += lane_[k].last - lane_[k].first;
    return pending;
}

bool
EventQueue::laneFirst() const
{
    if (lane_head_ == lane_.size())
        return false;
    if (heap_.empty())
        return true;
    const Entry &top = heap_.top();
    const std::uint32_t job = lane_[lane_head_].first;
    const Seconds time = submitOf(job);
    if (time != top.time)
        return time < top.time;
    return job < top.ord;
}

void
EventQueue::popLane()
{
    Run &head = lane_[lane_head_];
    if (++head.first < head.last)
        return;
    ++lane_head_;
    // Each drop moves fewer runs than were consumed since the last
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
        const std::uint32_t job = lane_[lane_head_].first;
        const Seconds time = submitOf(job);
        if (time > until)
            return false;
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
