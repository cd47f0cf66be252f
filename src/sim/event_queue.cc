#include "sim/event_queue.h"

#include "common/logging.h"

namespace gaia {

std::uint64_t
EventQueue::packOrd(int priority)
{
    GAIA_ASSERT(priority >= 0 && priority < 256,
                "event priority out of [0, 256): ", priority);
    const std::uint64_t seq = next_seq_++;
    GAIA_ASSERT(seq < (std::uint64_t{1} << 56),
                "event sequence counter overflow");
    return (static_cast<std::uint64_t>(priority) << 56) | seq;
}

void
EventQueue::schedule(Seconds when, SimEvent event)
{
    schedule(when, 1, event);
}

void
EventQueue::schedule(Seconds when, int priority, SimEvent event)
{
    GAIA_ASSERT(when >= now_, "scheduling into the past: ", when,
                " < ", now_);
    heap_.push(Entry{when, packOrd(priority), event});
}

void
EventQueue::scheduleSequential(Seconds when, int priority,
                               SimEvent event)
{
    GAIA_ASSERT(when >= now_, "scheduling into the past: ", when,
                " < ", now_);
    const Entry entry{when, packOrd(priority), event};
    if (!fifo_.empty() &&
        (entry.time < fifo_.back().time ||
         (entry.time == fifo_.back().time &&
          entry.ord < fifo_.back().ord))) {
        // Out of order relative to the staged lane: the heap still
        // dispatches it at the right point.
        heap_.push(entry);
        return;
    }
    fifo_.push_back(entry);
}

/** Earliest pending entry across both lanes; nullptr when empty. */
const EventQueue::Entry *
EventQueue::peek() const
{
    const Entry *staged =
        fifo_head_ < fifo_.size() ? &fifo_[fifo_head_] : nullptr;
    if (heap_.empty())
        return staged;
    const Entry *heaped = &heap_.top();
    if (staged == nullptr)
        return heaped;
    if (staged->time != heaped->time)
        return staged->time < heaped->time ? staged : heaped;
    return staged->ord < heaped->ord ? staged : heaped;
}

EventQueue::Entry
EventQueue::pop()
{
    const Entry *next = peek();
    const Entry entry = *next;
    if (!heap_.empty() && next == &heap_.top()) {
        heap_.pop();
    } else {
        ++fifo_head_;
        if (fifo_head_ == fifo_.size()) {
            fifo_.clear();
            fifo_head_ = 0;
        }
    }
    return entry;
}

bool
EventQueue::runNext(Sink &sink)
{
    if (empty())
        return false;
    const Entry entry = pop();
    now_ = entry.time;
    sink.onEvent(entry.event);
    return true;
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
    for (const Entry *next = peek();
         next != nullptr && next->time <= until; next = peek()) {
        const Entry entry = pop();
        now_ = entry.time;
        sink.onEvent(entry.event);
    }
    now_ = until;
}

Seconds
EventQueue::nextEventTime() const
{
    const Entry *next = peek();
    return next == nullptr ? -1 : next->time;
}

void
EventQueue::reserveSequential(std::size_t events)
{
    fifo_.reserve(events);
}

} // namespace gaia
