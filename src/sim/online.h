/**
 * @file
 * Online (incremental) GAIA scheduler.
 *
 * The paper designs GAIA "as a set of modules and services that can
 * be integrated into any existing cloud-enabled batch scheduler" —
 * the prototype intercepts live Slurm submissions. OnlineScheduler
 * is that embedding surface in this codebase: jobs are submitted
 * one at a time as they arrive, simulated time advances
 * incrementally, and the books can be read out whenever the caller
 * likes. Two drivers own its clock and call it directly:
 * VirtualClockDriver (sim/driver.h) replays a JobTrace for the batch
 * simulator and every figure sweep, and the consumer thread of the
 * serving layer's ServeDaemon (serve/daemon.h) paces a live stream.
 * Both paths share one engine and one accounting implementation.
 *
 * Tie-breaking contract drivers rely on: events at equal virtual
 * timestamps dispatch in (priority, schedule order), first arrivals
 * use the highest priority (in admission order among themselves), and
 * a carbon-source retry of an arrival the next — so submitting a job
 * before advancing the clock *into* its submit second reproduces the
 * batch ordering exactly. A driver must therefore never advance the
 * clock past `submit - 1` of a job it has yet to submit (the daemon
 * consumer's release-horizon bound).
 *
 * The event loop is allocation-free on the hot path: every handler
 * is a 16-byte tagged SimEvent dispatched through onEvent() — no
 * per-event closures. reserveJobs() pre-sizes the outcome and
 * segment start columns when the population is known up front
 * (makeEngine() in sim/simulator.h does this for both drivers).
 *
 * Placement follows one rule: a slice runs on spot when the job is
 * spot-eligible, else on free reserved cores, else on demand.
 * ReservedFirst and SpotReserved hold a single-segment, off-spot job
 * for reserved capacity until its planned start; every other job
 * follows its plan, one EvPlaceSegment per segment.
 *
 * The engine keeps each job's inputs in one job column, and every
 * other per-job record indexes it. replay() hands a fresh engine a
 * trace's own column, shared, never copied; submit() appends each
 * admitted job to a column the engine owns (reserveStream() allocates
 * it, or the first submit()). Either way a job is admitted by one
 * function that validates it, records its JobOutcome (the end of its
 * segment range, all the run decides that nothing else gives; a
 * straggler's stretched length derives from the job and the run's
 * fault injector) and queues its arrival by its job index, whose time
 * the arrival lane reads from the column, as planning reads its queue
 * hint; the lane holds a sorted feed's arrivals as runs of
 * consecutive indices, so a fault-free replay is one run (see
 * sim/event_queue.h). A rejected or
 * late job gets neither a column entry nor an outcome. A job's spot
 * evictions and its admitted arrival's offset from submit (from which
 * the no-wait counterfactual derives) are almost always 0, so each
 * lives in a per-job column that the engine creates only when it
 * first writes a nonzero entry, zero-filled for the jobs admitted
 * before, and extends when a job admitted later writes one.
 * The engine's working state (JobState: the plan, the spot flag and a
 * few counters) lives in a pool of slots that holds only the jobs in
 * flight: the arrival takes a slot, every later event that names the
 * job carries that slot, and the slot returns to a free list once no
 * queued event names it. So the pool is sized by concurrency, not by
 * history — about one slot for on-demand start-time runs and a live
 * daemon, a few hundred in a year of spot and reserved
 * suspend-resume. The one elastic profile belongs to the run, not to
 * a job. Every placement is appended in event order to the segment
 * columns, one per field. Its start's low word always is; its start's
 * high word, width, option and duration only from the first
 * placement whose field its column's default (0, 1, on demand, and
 * the job's as-run length while placement k is job k's only slice)
 * does not give, when the engine creates that column, filled with the
 * default for the placements before. While placements come job by
 * job in outcome order (start-time policies on on-demand capacity)
 * the columns are already grouped by job; from the first placement
 * out of that order, each placement's outcome index is logged in a
 * 4-byte column beside them. Until finalize() each outcome's
 * segment_end counts its job's placements. finalize() turns the
 * counts into range ends, permutes every non-empty segment column in
 * place into job order, accounts the columns in place in one walk per
 * job, and hands them over whole as SimulationResult::jobs, outcomes,
 * the segment columns, job_evictions and arrival_delays, so a run
 * never holds a record twice and recording a placement allocates
 * nothing per job. No slice records whether an eviction lost it: an
 * evicted job restarts as exactly one slice, so every slice before
 * its last is lost (SimulationResult::lostSlices()). The records are
 * packed (a 4-byte outcome, and 4 bytes per slice in a fault-free
 * on-demand run of start-time policies, up to 12 in all; see
 * sim/results.h), since a sweep holds them for every job of every
 * cell. The outcome, segment, eviction, arrival-delay and log columns
 * are Columns (common/column.h), so growing or freeing a large one
 * leaves no free block resident in a malloc arena.
 *
 * Usage:
 *
 *     GAIA_TRY_ASSIGN(OnlineScheduler sched,
 *                     OnlineScheduler::create(
 *                         policy, queues, cis, cluster,
 *                         ResourceStrategy::ReservedFirst));
 *     GAIA_TRY(sched.submit(job1));  // at job1.submit
 *     sched.advanceTo(now);          // process starts/finishes
 *     GAIA_TRY(sched.submit(job2));
 *     sched.drain();                 // run everything to completion
 *     SimulationResult r = sched.finalize();
 */

#ifndef GAIA_SIM_ONLINE_H
#define GAIA_SIM_ONLINE_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/eviction.h"
#include "cloud/reserved_pool.h"
#include "common/column.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cis.h"
#include "core/plan_cache.h"
#include "core/policy.h"
#include "core/queues.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/results.h"

namespace gaia {

class FaultInjector;

/**
 * Observer of engine-side lifecycle events, for live monitoring.
 * Attached by the serving layer; the batch path leaves it unset,
 * in which case the engine schedules no notification events at all,
 * so batch results never depend on it.
 */
class ProtocolListener
{
  public:
    virtual ~ProtocolListener() = default;

    /**
     * `id` finished its last successful segment at `at` (virtual
     * time). Fired through the event queue, so notifications are
     * delivered in non-decreasing `at` order, after every
     * same-instant scheduling action.
     */
    virtual void onJobEnd(Seconds at, JobId id) = 0;
};

/**
 * Incremental cluster scheduler/simulator. Single-threaded — exactly
 * one driver thread may call it; cross-thread submission hand-off
 * happens upstream (the serving layer's MPSC queue). All referenced
 * collaborators must outlive the scheduler.
 */
class OnlineScheduler : private EventQueue::Sink
{
  public:
    /**
     * Validating factory and the only public constructor: checks
     * the cluster/strategy combination and the fault spec, and
     * returns a ready scheduler or the Status explaining what is
     * wrong with the input. sim/simulator.h's makeEngine() wraps it
     * for a whole SimulationSetup.
     *
     * @param policy    temporal scheduling policy
     * @param queues    queue configuration (calibrated J_avg)
     * @param cis       carbon information source (plain service or
     *                  a fault-injecting decorator)
     * @param cluster   cluster configuration; a zero
     *                  reservation_horizon is derived from the
     *                  observed schedule at finalize()
     * @param strategy  resource placement strategy
     * @param workload  label recorded in the result
     * @param faults    optional cluster-side fault injector (storms,
     *                  stragglers, delayed starts) and source of the
     *                  degradation-ladder knobs; nullptr = no faults
     */
    static Result<OnlineScheduler>
    create(const SchedulingPolicy &policy, const QueueConfig &queues,
           const CarbonInfoSource &cis, const ClusterConfig &cluster,
           ResourceStrategy strategy, std::string workload = "online",
           const FaultInjector *faults = nullptr);

    OnlineScheduler(OnlineScheduler &&) = default;

    /**
     * Submit a job of a stream: the engine appends it to its own job
     * column. Errors (rather than asserting) when the job fails
     * validateJob() or its submit time precedes the current
     * simulation time, since live feeds are untrusted input; a
     * rejected job leaves no trace. The engine applies validateJob()
     * itself because its packed records rely on it: slices hold their
     * duration in 32 bits and their start in 48, and cpus x width
     * must fit an int. Not for an engine that replay() fed.
     */
    Status submit(const Job &job);

    /**
     * Submit every job of `trace`, in its (submit) order, sharing the
     * trace's job column instead of copying it: the result carries
     * that column. A fresh engine runs at most one trace, and takes
     * no submit() beside it.
     */
    Status replay(const JobTrace &trace);

    /**
     * Allocate the job column submit() appends to, at the capacity
     * reserveJobs() recorded, on the calling thread; the first
     * submit() does it otherwise. A driver that submits from another
     * thread calls this first, so the column comes from the calling
     * thread's malloc arena: allocated on the serving daemon's
     * consumer thread, it stayed resident in that thread's arena,
     * about 3 MB more peak RSS on bench/perf's serve_stream.
     */
    void reserveStream();

    /**
     * Pre-size the outcome and segment start columns for `count`
     * jobs, and record `count` as the capacity of the job column a
     * streamed run allocates (reserveStream()); an engine fed by
     * replay() shares its trace's column and allocates none. Call
     * before the engine takes its jobs. The job-state pool and the arrival lane
     * are not reserved here: the pool grows to the jobs in flight,
     * and the lane holds a run of job indices per break in the
     * arrival order, one for a fault-free replay.
     * `storage`'s outcome, segment, eviction and arrival-delay
     * columns become this run's: they are cleared and only their
     * capacity is kept, so a caller rerunning a cell can hand back
     * the previous run's whole SimulationResult and have each column
     * refilled in place instead of freed and allocated again. The
     * start column reserves max(count, storage.segment_starts.size())
     * slots, which a rerun of the same cell fills exactly. The other
     * columns are not reserved here: a run fills the per-job ones only
     * when one of its jobs is evicted or arrives late, and creates
     * each optional segment column at its first non-default entry,
     * reserved then to the start column's capacity. Every record is
     * still built fresh; an empty result (the default) is a fresh run
     * on the same path.
     */
    void reserveJobs(std::size_t count, SimulationResult storage = {});

    /**
     * Set the run's elastic-scaling profile, applied to every job —
     * the scenario-level `--elastic-profile` knob. Call before the
     * first submit(); without a call every job runs at fixed width.
     */
    void setDefaultElasticProfile(const ElasticProfile &profile);

    /** Current simulation time. */
    Seconds now() const { return events_.now(); }

    /** Process every event up to and including time `t`. */
    void advanceTo(Seconds t);

    /** Process all remaining events (run to completion). */
    void drain();

    /** Jobs submitted so far. */
    std::size_t submittedJobs() const { return outcomes_.size(); }

    /** Runs of job indices the event queue's arrival lane holds (see
     *  EventQueue::laneRuns()): one for a stream submitted in order,
     *  and at most about twice the runs still pending there however
     *  long a stream has run. */
    std::size_t arrivalLaneRuns() const { return events_.laneRuns(); }

    /**
     * Job-state slots held right now: one per job that has arrived
     * and still has a queued event naming it. Zero once drained.
     */
    std::size_t jobSlotsInUse() const
    {
        return states_.size() - free_slots_.size();
    }

    /**
     * Attach (or detach, with nullptr) the lifecycle observer.
     * Must be set before the first submit; the engine only
     * schedules notification events for jobs submitted while a
     * listener is attached.
     */
    void setListener(ProtocolListener *listener)
    {
        listener_ = listener;
    }

    /** Jobs currently waiting for reserved capacity. */
    std::size_t pendingJobs() const { return pending_.size(); }

    /** Reserved cores currently busy. */
    int reservedCoresInUse() const { return pool_.inUse(); }

    /** This run's plan memoization counters (see core/plan_cache.h). */
    const PlanCache &planCache() const { return plan_cache_; }

    /**
     * Close the books and return the result. The scheduler must be
     * drained; finalize() may be called once.
     */
    SimulationResult finalize();

  private:
    /** Called only by create(), after it has validated the input. */
    OnlineScheduler(const SchedulingPolicy &policy,
                    const QueueConfig &queues,
                    const CarbonInfoSource &cis,
                    const ClusterConfig &cluster,
                    ResourceStrategy strategy, std::string workload,
                    const FaultInjector *faults);

    /** A job's working state while it is in flight: one slot of the
     *  pool, taken at arrival and freed once no queued event names
     *  it. */
    struct JobState
    {
        SchedulePlan plan;
        /** Job-column (and outcome) index of the job holding the
         *  slot. */
        std::uint32_t job = 0;
        /** Every segment of the plan runs on spot (SpotFirst and
         *  SpotReserved, up to spot_max_length). */
        bool spot_eligible = false;
        /** Spot evictions the job has suffered; once nonzero, the
         *  rest of its plan is superseded by the restart. */
        std::uint8_t evictions = 0;
        /** Queued events that name this slot. */
        std::uint32_t refs = 0;
        /** Carbon-source probes spent in the degradation ladder. */
        std::uint32_t cis_attempts = 0;
        /** Post-eviction spot re-attempts under the storm model. */
        std::uint32_t spot_retries = 0;
    };

    /** Event tags; payloads documented per tag. First arrivals are
     *  not events: the queue hands them to onArrival(). Every tag but
     *  EvPoolRelease and EvJobEnd names a job-state slot and is
     *  scheduled through scheduleForSlot(). */
    enum Ev : std::uint32_t
    {
        /** a = slot; a carbon-source retry probe of the arrival. */
        EvRetryArrival,
        /** a = slot, b = plan segment index: on spot if the job is
         *  spot-eligible, else on reserved cores if they fit, else on
         *  demand; inert once the job has been evicted. */
        EvPlaceSegment,
        /** a = slot; a job waiting for reserved capacity reached its
         *  planned start: on demand, unless a release started it. */
        EvPlannedStart,
        /** a = slot; fires at the eviction instant. */
        EvRestartAfterEviction,
        /** a = cpus to return to the reserved pool. */
        EvPoolRelease,
        /**
         * a = job index; notification to the attached
         * ProtocolListener that the job settled. Scheduled only
         * while a listener is attached, so listener-free (batch)
         * runs dispatch no notification events at all.
         */
        EvJobEnd,
    };

    /**
     * Same-timestamp priorities of the engine's events (lower runs
     * first). First arrivals run before all of them, at the queue's
     * priority 0. A carbon-source retry re-arrives next, so a
     * streamed run orders it after a same-second first arrival
     * submitted later, as the batch run (which submits every job
     * before the first retry) does. Every scheduling action follows,
     * and EvJobEnd notifications run last, after the instant's state
     * changes have settled.
     */
    static constexpr int kRetryPriority = 1;
    static constexpr int kActionPriority = 2;
    static constexpr int kNotifyPriority = 3;

    void onEvent(const SimEvent &event) override;
    /** A first arrival: takes a slot for job `job` and plans it. */
    void onArrival(std::uint32_t job) override;

    /** The submitted job at index `job` of the job column. */
    const Job &jobAt(std::uint32_t job) const { return (*jobs_)[job]; }
    /** Admit job `job` of the job column, which must be the next
     *  one: validate it, record its outcome and queue its arrival. */
    Status admit(std::size_t job);

    /** A slot for job `job`: the most recently freed one, else a new
     *  one appended to the pool. */
    std::uint32_t takeSlot(std::uint32_t job);
    /** Return `slot` to the free list if no queued event names it. */
    void freeIfUnnamed(std::uint32_t slot);
    /** Schedule `kind` naming `slot` and count it in the slot's
     *  refs; onEvent() takes the count off as it dispatches. Every
     *  event that names a slot goes through here, so a slot is never
     *  freed while an event that will read it is queued — including
     *  events that outlive the work they were queued for (a planned
     *  start after an early reserved start, the rest of an evicted
     *  spot plan). */
    void scheduleForSlot(Seconds when, Ev kind, std::uint32_t slot,
                         std::int64_t b = 0,
                         int priority = kActionPriority);

    /** Plan the job in `slot` at its (first or retried) arrival. */
    void planArrival(std::uint32_t slot);
    /** Degradation ladder on source outage: true = arrival handled
     *  (a backoff retry was scheduled); false = plan carbon-
     *  obliviously now. */
    bool retryArrivalLater(std::uint32_t slot);
    /** Place the planned job in `slot` by the placement rule. */
    void dispatch(std::uint32_t slot);
    void followPlan(std::uint32_t slot);
    void placeSegment(std::uint32_t slot, std::size_t seg_idx);
    /** Run [from, to) of the job in `slot` on spot at `width`
     *  instances; evict at the earlier of the independent sampled
     *  eviction and the first storm. One eviction draw covers the
     *  whole gang, so the RNG stream is identical to the width-1
     *  stream. `final_slice` marks the slice whose successful
     *  completion settles the job (last planned segment, or a
     *  restart that covers the whole job). */
    void runSpotSlice(std::uint32_t slot, Seconds from, Seconds to,
                      int width, bool final_slice);
    /** Schedule the EvJobEnd notification for job `job` at `at`;
     *  no-op without an attached listener. Called exactly once per
     *  job, at the record site of its final non-lost segment. */
    void notifyJobEnd(std::uint32_t job, Seconds at);
    /** Run [from, to) of job `job` at `width` instances on reserved
     *  cores if they fit: acquire them, record the slice and queue
     *  their release at `to`. False (and nothing done) otherwise. */
    bool runOnReserved(std::uint32_t job, Seconds from, Seconds to,
                       int width);
    /** Run [from, to) of job `job` on reserved cores if they fit,
     *  else on demand. */
    void placeSlice(std::uint32_t job, Seconds from, Seconds to,
                    int width);
    /** Start the waiting single-segment job in `slot` now, at its
     *  planned duration and width, if its reserved cores fit. */
    bool startOnReserved(std::uint32_t slot);
    /** Record [from, to) of job `job` at `width` instances on
     *  `option`: append its start to segment_starts_, and each other
     *  field to its column, creating that column, filled with the
     *  default for the placements before, at the first field its
     *  default does not give. A duration is the default while
     *  placement k is job k's and lasts its as-run length. */
    void recordSegment(std::uint32_t job, Seconds from, Seconds to,
                       PurchaseOption option, int width);
    void onPlannedStart(std::uint32_t slot);
    void drainPending();
    void restartAfterEviction(std::uint32_t slot, Seconds at);
    /** Turn each outcome's slice count into its segment_end and, if
     *  segment_jobs_ was started, permute every non-empty segment
     *  column into job order in place and free segment_jobs_. */
    void groupSegmentsByJob();
    void finalizeInto(SimulationResult &result);

    const SchedulingPolicy &policy_;
    const QueueConfig &queues_;
    const CarbonInfoSource &cis_;
    /** The run's cluster; finalize() derives a zero
     *  reservation_horizon in place. */
    ClusterConfig cluster_;
    ResourceStrategy strategy_;
    std::string workload_;
    /** The run's elastic profile, handed to every plan() call;
     *  disabled (fixed width) unless setDefaultElasticProfile()
     *  enabled it. */
    ElasticProfile elastic_;
    /** Cluster-side fault oracle; nullptr = faults disabled. */
    const FaultInjector *faults_ = nullptr;
    /** Lifecycle observer; nullptr (the batch path) schedules no
     *  EvJobEnd events. */
    ProtocolListener *listener_ = nullptr;

    EventQueue events_;
    /** One cache per simulation, handed to every plan() call;
     *  plans within a run share slot-invariant boundary work. */
    PlanCache plan_cache_;
    ReservedPool pool_;
    EvictionModel eviction_;
    Rng rng_;
    /** Job-state slots of the jobs in flight, plus freed ones;
     *  events name slots by index, so growth is free to relocate
     *  the vector. */
    std::vector<JobState> states_;
    /** Freed slots of states_, reused last-in first-out. */
    std::vector<std::uint32_t> free_slots_;
    /** The job column: a replayed trace's shared jobs, or the jobs
     *  submit() admitted so far, in admission order. Null until
     *  replay() or reserveStream(); handed to the result by
     *  finalize(). */
    std::shared_ptr<const std::vector<Job>> jobs_;
    /** The column submit() appends to, which jobs_ shares; null
     *  unless the engine streams. */
    std::vector<Job> *streamed_ = nullptr;
    /** Jobs reserveJobs() sized the run for, the capacity
     *  reserveStream() gives a streamed column. */
    std::size_t reserved_jobs_ = 0;
    /** One record per admitted job, outcome i for job i of the
     *  column; moved into the result by finalize(). */
    Column<JobOutcome> outcomes_;
    /** The result's per-job eviction and arrival-delay columns
     *  (SimulationResult::job_evictions, arrival_delays). Each stays
     *  empty until a job writes a nonzero entry, and then holds an
     *  entry for every job admitted up to the latest write;
     *  finalize() sizes a non-empty one to every outcome. */
    Column<std::uint8_t> job_evictions_;
    Column<std::uint32_t> arrival_delays_;
    /** Every placement's fields in event order, one column each
     *  (SimulationResult::segment_starts and the four beside it),
     *  until finalize() groups them by job and moves them into the
     *  result. Only the start column takes every placement; each of
     *  the others stays empty until the first placement that its
     *  default does not give (recordSegment()). */
    Column<std::uint32_t> segment_starts_;
    Column<std::uint16_t> segment_starts_hi_;
    Column<std::uint8_t> segment_widths_;
    Column<PurchaseOption> segment_options_;
    Column<std::uint32_t> segment_durations_;
    /** segment_jobs_[k] is the outcome index of placement k; empty
     *  while the placements are grouped by job, so runs that place
     *  jobs in order neither allocate nor permute it. */
    Column<std::uint32_t> segment_jobs_;
    /** Job of the latest placement while segment_jobs_ is empty. */
    std::uint32_t last_segment_job_ = 0;
    /** Slots waiting for reserved capacity, by planned start; equal
     *  starts keep their insertion order. */
    std::multimap<Seconds, std::uint32_t> pending_;
    bool finalized_ = false;
    /** Events seen by onEvent(); a plain member (no atomic — the
     *  dispatch loop is single-threaded) flushed to the process-wide
     *  sim.events_dispatched counter once at finalize(). */
    std::uint64_t events_dispatched_ = 0;
    /** Fault bookkeeping, flushed like events_dispatched_. */
    std::uint64_t faults_injected_ = 0;
    std::uint64_t cis_retries_ = 0;
    std::uint64_t degraded_plans_ = 0;
    /** Per-instance spot re-attempts under storms: each gang retry
     *  of a width-w job counts w (instances re-acquire separately). */
    std::uint64_t spot_instance_retries_ = 0;
    /** Instance-seconds executed under degraded (carbon-oblivious)
     *  plans; flushed as whole instance-hours. */
    std::uint64_t degraded_instance_seconds_ = 0;
};

} // namespace gaia

#endif // GAIA_SIM_ONLINE_H
