/**
 * @file
 * Discrete-event simulation core: a time-ordered queue of small POD
 * events and job arrivals, dispatched to a sink.
 *
 * Events at equal timestamps run in (priority, scheduling order) (a
 * monotonic sequence number breaks ties), which keeps every
 * simulation fully deterministic. Events are 16-byte tagged records
 * rather than heap-allocated closures, so the scheduling hot path
 * performs no allocation beyond the heap vector's amortized growth —
 * the tag and payloads are interpreted by the Sink (see
 * OnlineScheduler), keeping the queue itself policy-free.
 *
 * Job arrivals are the one kind the queue knows: each names a job by
 * its index in the run's job column, runs before every other event
 * at its instant, and among arrivals at one instant the lower index
 * runs first. An arrival at its job's submit time whose index and time
 * both come after the lane's tail waits in a lane of [first, last)
 * runs of consecutive job indices, whose times are read from the
 * column: an index that continues the last run extends it, any other
 * starts a new one, so a sorted replay or an in-order stream is one
 * run however many jobs it has. The rest (a fault-delayed arrival, a
 * streamed submit earlier than the lane's tail) wait in the heap.
 * Both merge in that one order, so which of them holds an arrival
 * never shows in the dispatch order.
 */

#ifndef GAIA_SIM_EVENT_QUEUE_H
#define GAIA_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <queue>
#include <vector>

#include "common/time.h"
#include "workload/job.h"

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
        /** Job `job` of the arrival column arrives; now() is the
         *  arrival instant. */
        virtual void onArrival(std::uint32_t job) = 0;
    };

    /**
     * Read arrival times from `jobs`, the run's job column: a lane
     * entry for job i fires at jobs[i].submit. Call before the first
     * scheduleArrival(). The vector may grow (a streamed run appends
     * to it) but must stay at its address while arrivals are queued.
     */
    void bindArrivals(const std::vector<Job> &jobs) { arrivals_ = &jobs; }

    /**
     * Schedule `event` at absolute time `when` (>= now()) with a
     * same-timestamp priority in [1, 256): lower runs first, and
     * equal priorities run in scheduling order. Priority 0 belongs
     * to arrivals.
     */
    void schedule(Seconds when, int priority, SimEvent event);

    /**
     * Schedule the arrival of job `job` of the bound column at
     * `when` (>= now()); see the file comment for its order. It
     * joins the lane when `when` is the job's submit time and both
     * `job` and `when` come after the lane's last arrival, extending
     * the last run when `job` is its end, and the heap otherwise.
     */
    void scheduleArrival(std::uint32_t job, Seconds when);

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

    /** Current simulation time (start of the last-run event). */
    Seconds now() const { return now_; }

    bool
    empty() const
    {
        return heap_.empty() && lane_head_ == lane_.size();
    }

    /** Events and arrivals still queued. */
    std::size_t pendingCount() const;

    /**
     * Runs the arrival lane holds: those with a pending arrival plus
     * a consumed prefix, which is dropped once it reaches half the
     * lane, so a long-lived stream's lane stays within twice its
     * pending runs.
     */
    std::size_t laneRuns() const { return lane_.size(); }

  private:
    /**
     * 32-byte heap record. `ord` packs (priority << 56) | seq so
     * the (time, priority, seq) dispatch order collapses into two
     * comparisons; an arrival's is its bare job index (priority 0).
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
    /** The lowest `ord` of a priority-1 event; every arrival's is
     *  below it. */
    static constexpr std::uint64_t kFirstEventOrd = std::uint64_t{1}
                                                    << 56;

    /** Job indices [first, last) arriving at their submit times, in
     *  index order. */
    struct Run
    {
        std::uint32_t first;
        std::uint32_t last;
    };

    /** Submit time of job `job` of the bound column. */
    Seconds submitOf(std::uint32_t job) const
    {
        return (*arrivals_)[job].submit;
    }
    /** True when the lane has a pending arrival that runs before
     *  the heap's earliest entry. */
    bool laneFirst() const;
    /** Consume the lane's next arrival, dropping the consumed runs
     *  once they reach half the lane. */
    void popLane();
    /** Dispatch the earliest event if it is due by `until`. */
    bool runNextUntil(Seconds until, Sink &sink);

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    /** Runs of arrivals at their submit times, sorted by (submit,
     *  index); [lane_head_, end) hold the pending ones, and the head
     *  run's `first` is the next to dispatch. */
    std::vector<Run> lane_;
    std::size_t lane_head_ = 0;
    /** The bound job column; null until bindArrivals(). */
    const std::vector<Job> *arrivals_ = nullptr;
    std::uint64_t next_seq_ = 0;
    Seconds now_ = 0;
};

} // namespace gaia

#endif // GAIA_SIM_EVENT_QUEUE_H
