/**
 * @file
 * Discrete-event simulation core: a time-ordered queue of small POD
 * events dispatched to a sink.
 *
 * Events at equal timestamps run in scheduling order (a monotonic
 * sequence number breaks ties), which keeps every simulation fully
 * deterministic. Events are 16-byte tagged records rather than
 * heap-allocated closures, so the scheduling hot path performs no
 * allocation beyond the heap vector's amortized growth — the tag
 * and payloads are interpreted by the Sink (see OnlineScheduler),
 * keeping the queue itself policy-free.
 */

#ifndef GAIA_SIM_EVENT_QUEUE_H
#define GAIA_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <queue>
#include <vector>

#include "common/time.h"

namespace gaia {

/**
 * One scheduled occurrence: a dispatcher-defined tag plus two raw
 * payload fields (e.g. a job index and a segment index). The queue
 * never interprets any of them.
 */
struct SimEvent
{
    std::uint32_t kind = 0;
    std::uint32_t a = 0;
    std::int64_t b = 0;
};

/** Minimal deterministic event queue. */
class EventQueue
{
  public:
    /** Receiver of dispatched events. */
    struct Sink
    {
        virtual ~Sink() = default;
        /** Called with now() already set to the event's time. */
        virtual void onEvent(const SimEvent &event) = 0;
    };

    /** Schedule `event` at absolute time `when` (>= now()). */
    void schedule(Seconds when, SimEvent event);

    /**
     * Schedule with an explicit same-timestamp priority (lower runs
     * first; the plain overload uses priority 1). Job arrivals use
     * priority 0 so batch-fed and incrementally-fed simulations
     * order timestamp ties identically.
     */
    void schedule(Seconds when, int priority, SimEvent event);

    /**
     * Schedule hint for callers whose `when` values arrive in
     * non-decreasing order (batch job feeds): events land in a flat
     * FIFO lane instead of the heap, so a year-long trace does not
     * inflate the heap — and every pop's sift-down — with tens of
     * thousands of far-future arrivals. Out-of-order calls silently
     * fall back to the heap; dispatch order is identical either way
     * (global (time, priority, seq) order across both lanes).
     */
    void scheduleSequential(Seconds when, int priority,
                            SimEvent event);

    /**
     * Pop the earliest event and hand it to `sink`; false when
     * drained. The sink is passed per call rather than stored so
     * the queue (and anything embedding it) stays freely movable.
     */
    bool runNext(Sink &sink);

    /** Run until the queue is empty. */
    void runAll(Sink &sink);

    /**
     * Run every event with time <= `until` (events they spawn
     * included), then set now() to `until`. Enables incremental
     * (online) simulation.
     */
    void runUntil(Seconds until, Sink &sink);

    /** Timestamp of the earliest pending event; -1 when empty. */
    Seconds nextEventTime() const;

    /** Current simulation time (start of the last-run event). */
    Seconds now() const { return now_; }

    bool
    empty() const
    {
        return heap_.empty() && fifo_head_ == fifo_.size();
    }

    std::size_t
    pendingCount() const
    {
        return heap_.size() + (fifo_.size() - fifo_head_);
    }

    /** Pre-size the sequential lane for `events`
     *  scheduleSequential() calls; the heap grows as needed. */
    void reserveSequential(std::size_t events);

  private:
    /**
     * 32-byte queue record. `ord` packs (priority << 56) | seq so
     * the (time, priority, seq) dispatch order collapses into two
     * comparisons; seq is a global counter across both lanes, which
     * is what keeps their merge order well defined.
     */
    struct Entry
    {
        Seconds time;
        std::uint64_t ord;
        SimEvent event;
    };
    struct Later
    {
        bool operator()(const Entry &a, const Entry &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.ord > b.ord;
        }
    };
    std::uint64_t packOrd(int priority);
    const Entry *peek() const;
    Entry pop();

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    /** Sorted lane: non-decreasing (time, ord), consumed in order. */
    std::vector<Entry> fifo_;
    std::size_t fifo_head_ = 0;
    std::uint64_t next_seq_ = 0;
    Seconds now_ = 0;
};

} // namespace gaia

#endif // GAIA_SIM_EVENT_QUEUE_H
