#include "sim/online.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/obs.h"
#include "core/elastic.h"
#include "fault/injector.h"

namespace gaia {

namespace {

// Process-wide aggregates across every simulation; per-event state
// stays in plain members and flushes here once at finalize().
obs::Counter &c_events = obs::counter("sim.events_dispatched");
obs::Counter &c_jobs_completed = obs::counter("sim.jobs_completed");
obs::Counter &c_jobs_evicted = obs::counter("sim.jobs_evicted");
obs::Counter &c_evictions = obs::counter("sim.evictions");
obs::Counter &c_faults_injected = obs::counter("fault.injected");
obs::Counter &c_cis_retries = obs::counter("cis.retries");
obs::Counter &c_degraded = obs::counter("policy.degraded_slots");
obs::Counter &c_spot_instance_retries =
    obs::counter("fault.spot_instance_retries");
obs::Counter &c_degraded_instance_hours =
    obs::counter("policy.degraded_instance_hours");

/** Set job `job`'s entry of a per-job `column` to `value`. An empty
 *  column (0 for every job) or one that ends before `job` (admitted
 *  after the latest entry) first grows to the `admitted` jobs, with
 *  0 for each new entry. */
template <typename T>
void
setJobEntry(Column<T> &column, std::size_t admitted,
            std::uint32_t job, T value)
{
    if (job >= column.size())
        column.resize(admitted);
    column[job] = value;
}

/** Append `value` to an optional segment `column`, which stays empty
 *  while every entry is `fallback`: the first other value creates
 *  it, reserved to `capacity` entries and holding `fallback` for the
 *  `recorded` placements before. */
template <typename T>
void
appendSegmentField(Column<T> &column, std::size_t recorded,
                   std::size_t capacity, T value, T fallback)
{
    if (column.empty()) {
        if (value == fallback)
            return;
        column.reserve(capacity);
        column.assign(recorded, fallback);
    }
    column.push_back(value);
}

/** `column`'s buffer, emptied, for a run to refill. */
template <typename T>
Column<T>
recycled(Column<T> &column)
{
    column.clear();
    return std::move(column);
}

} // namespace

OnlineScheduler::OnlineScheduler(const SchedulingPolicy &policy,
                                 const QueueConfig &queues,
                                 const CarbonInfoSource &cis,
                                 const ClusterConfig &cluster,
                                 ResourceStrategy strategy,
                                 std::string workload,
                                 const FaultInjector *faults)
    : policy_(policy),
      queues_(queues),
      cis_(cis),
      cluster_(cluster),
      strategy_(strategy),
      workload_(std::move(workload)),
      faults_(faults),
      pool_(cluster.reserved_cores),
      eviction_(cluster.spot_eviction_rate),
      rng_(cluster.seed)
{
}

Result<OnlineScheduler>
OnlineScheduler::create(const SchedulingPolicy &policy,
                        const QueueConfig &queues,
                        const CarbonInfoSource &cis,
                        const ClusterConfig &cluster,
                        ResourceStrategy strategy,
                        std::string workload,
                        const FaultInjector *faults)
{
    GAIA_TRY(validateClusterSetup(cluster, strategy));
    if (faults != nullptr)
        GAIA_TRY(faults->spec().validate());
    return OnlineScheduler(policy, queues, cis, cluster, strategy,
                           std::move(workload), faults);
}

void
OnlineScheduler::setDefaultElasticProfile(
    const ElasticProfile &profile)
{
    GAIA_ASSERT(outcomes_.empty(),
                "setDefaultElasticProfile() after submit()");
    const Status valid = profile.validate();
    GAIA_ASSERT(valid.isOk(), "invalid default elastic profile: ",
                valid.message());
    elastic_ = profile;
}

void
OnlineScheduler::reserveJobs(std::size_t count,
                             SimulationResult storage)
{
    GAIA_ASSERT(jobs_ == nullptr,
                "reserveJobs() after the engine took its jobs");
    // Every job records at least one segment, and a rerun of the
    // cell that filled `storage` records exactly as many as it did.
    const std::size_t segment_slots =
        std::max(count, storage.segment_starts.size());
    outcomes_ = recycled(storage.outcomes);
    outcomes_.reserve(count);
    segment_starts_ = recycled(storage.segment_starts);
    segment_starts_.reserve(segment_slots);
    segment_starts_hi_ = recycled(storage.segment_starts_hi);
    segment_widths_ = recycled(storage.segment_widths);
    segment_options_ = recycled(storage.segment_options);
    segment_durations_ = recycled(storage.segment_durations);
    job_evictions_ = recycled(storage.job_evictions);
    arrival_delays_ = recycled(storage.arrival_delays);
    reserved_jobs_ = count;
}

void
OnlineScheduler::onArrival(std::uint32_t job)
{
    ++events_dispatched_;
    const std::uint32_t slot = takeSlot(job);
    planArrival(slot);
    freeIfUnnamed(slot);
}

void
OnlineScheduler::onEvent(const SimEvent &event)
{
    ++events_dispatched_;
    switch (event.kind) {
      case EvPoolRelease:
        pool_.release(static_cast<int>(event.a));
        drainPending();
        return;
      case EvJobEnd:
        // Notification only; a listener detached after the schedule
        // simply misses the callback.
        if (listener_ != nullptr)
            listener_->onJobEnd(events_.now(), jobAt(event.a).id);
        return;
    }

    // Every other event names a job-state slot: it takes off the
    // reference its scheduling counted, and the slot is freed once
    // the handler has left no queued event naming it.
    const std::uint32_t slot = event.a;
    GAIA_ASSERT(slot < states_.size() && states_[slot].refs > 0,
                "event ", event.kind, " names free slot ", slot);
    --states_[slot].refs;
    switch (event.kind) {
      case EvRetryArrival:
        planArrival(slot);
        break;
      case EvPlaceSegment:
        placeSegment(slot, static_cast<std::size_t>(event.b));
        break;
      case EvPlannedStart:
        onPlannedStart(slot);
        break;
      case EvRestartAfterEviction:
        restartAfterEviction(slot, events_.now());
        break;
      default:
        panic("unknown event kind ", event.kind);
    }
    freeIfUnnamed(slot);
}

void
OnlineScheduler::freeIfUnnamed(std::uint32_t slot)
{
    if (states_[slot].refs == 0) {
        states_[slot] = JobState{};
        free_slots_.push_back(slot);
    }
}

std::uint32_t
OnlineScheduler::takeSlot(std::uint32_t job)
{
    // Byte budget of one slot; tests/sim/test_layout_budget.cc pins
    // the public records, and JobState is private, so its budget
    // lives here.
    static_assert(sizeof(JobState) <= 56,
                  "JobState outgrew its 56-byte budget");
    std::uint32_t slot = 0;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(states_.size());
        states_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    states_[slot].job = job;
    return slot;
}

void
OnlineScheduler::scheduleForSlot(Seconds when, Ev kind,
                                 std::uint32_t slot, std::int64_t b,
                                 int priority)
{
    ++states_[slot].refs;
    events_.schedule(when, priority, SimEvent{kind, slot, b});
}

void
OnlineScheduler::notifyJobEnd(std::uint32_t job, Seconds at)
{
    if (listener_ == nullptr)
        return;
    events_.schedule(at, kNotifyPriority, SimEvent{EvJobEnd, job, 0});
}

void
OnlineScheduler::reserveStream()
{
    GAIA_ASSERT(jobs_ == nullptr,
                "reserveStream() on an engine that already holds jobs");
    auto column = std::make_shared<std::vector<Job>>();
    column->reserve(reserved_jobs_);
    streamed_ = column.get();
    events_.bindArrivals(*column);
    jobs_ = std::move(column);
}

Status
OnlineScheduler::submit(const Job &job)
{
    GAIA_ASSERT(!finalized_, "submit() after finalize()");
    if (jobs_ == nullptr)
        reserveStream();
    GAIA_ASSERT(streamed_ != nullptr,
                "submit() on an engine fed by replay()");
    streamed_->push_back(job);
    const Status admitted = admit(streamed_->size() - 1);
    if (!admitted.isOk())
        streamed_->pop_back();
    return admitted;
}

Status
OnlineScheduler::replay(const JobTrace &trace)
{
    GAIA_ASSERT(!finalized_, "replay() after finalize()");
    GAIA_ASSERT(jobs_ == nullptr,
                "replay() on an engine that already holds jobs");
    jobs_ = trace.sharedJobs();
    events_.bindArrivals(*jobs_);
    // The sorted trace's arrivals wait in the lane as one run, split
    // only where a fault delays one into the heap.
    for (std::size_t i = 0; i < jobs_->size(); ++i)
        GAIA_TRY(admit(i));
    return Status::ok();
}

Status
OnlineScheduler::admit(std::size_t idx)
{
    const Job &job = (*jobs_)[idx];
    // The engine holds its own bounds rather than trusting every
    // feed to have validated: the packed slices store their duration
    // in 32 bits and their start in 48, and cpus x width must stay
    // inside an int.
    GAIA_TRY(validateJob(job));
    GAIA_REQUIRE(job.submit >= events_.now(), "job ", job.id,
                 " submitted at ", job.submit,
                 " but simulation time is already ", events_.now());
    GAIA_ASSERT(idx == outcomes_.size(), "job ", idx,
                " admitted out of column order");
    GAIA_ASSERT(idx < kMaxJobs, "job index overflows the event "
                "payload");
    // Admitted arrival: the user's submit plus any fault delay.
    Seconds arrival = job.submit;
    outcomes_.emplace_back();
    if (faults_ != nullptr) {
        // Straggler slowdown: the job really takes longer. Planning,
        // restarts and the books all take its as-run length
        // (asRunLength()), so here it is only counted.
        if (faults_->straggler(job.id))
            ++faults_injected_;
        if (faults_->delayedStart(job.id)) {
            // Delayed start: the scheduler sees the job late, but
            // the user submitted at the original instant, so the
            // delay counts as waiting time in the outcome.
            arrival += faults_->startDelay();
            ++faults_injected_;
        }
    }
    // Arrivals at a timestamp run before same-instant retries,
    // releases and starts, in job order, so batch and incremental
    // feeding agree. The lane keeps a sorted feed's arrivals out of
    // the heap as runs of job indices; a fault-delayed arrival falls
    // back to the heap transparently.
    events_.scheduleArrival(static_cast<std::uint32_t>(idx), arrival);
    return Status::ok();
}

void
OnlineScheduler::advanceTo(Seconds t)
{
    GAIA_ASSERT(!finalized_, "advanceTo() after finalize()");
    events_.runUntil(t, *this);
}

void
OnlineScheduler::drain()
{
    GAIA_ASSERT(!finalized_, "drain() after finalize()");
    events_.runAll(*this);
}

void
OnlineScheduler::planArrival(std::uint32_t slot)
{
    JobState &state = states_[slot];
    const Job &submitted = jobAt(state.job);
    // The job as admitted: stretched by a straggler fault, arriving
    // now, at its (possibly delayed or retried) arrival instant.
    // Planning runs at this instant; the column keeps the user's
    // submit, so any delay counts as waiting.
    const Job job{submitted.id, events_.now(),
                  asRunLength(submitted, faults_), submitted.cpus,
                  submitted.queue_hint};

    if (!cis_.availableAt(events_.now())) {
        if (retryArrivalLater(slot))
            return;
        // Retry budget exhausted: degrade to the carbon-oblivious
        // NoWait plan rather than blocking the queue. Recovery is
        // automatic — the next arrival (or retry probe) that finds
        // the source available plans normally again. An elastic
        // policy degrades to the elastic NoWait analogue (full width
        // now under an enabled profile), keeping its work-conserving
        // completion semantics.
        ++degraded_plans_;
        state.plan = policy_.elastic()
                         ? elasticNoWaitPlan(job, elastic_)
                         : SchedulePlan(job.submit, job.length);
        for (const RunSegment &seg : state.plan.segments())
            degraded_instance_seconds_ +=
                static_cast<std::uint64_t>(seg.duration()) *
                static_cast<std::uint64_t>(seg.width);
    } else {
        const QueueSpec &queue = queues_.queueForJob(job);
        PlanContext ctx;
        ctx.now = job.submit;
        ctx.cis = &cis_;
        ctx.queue = &queue;
        ctx.cache = &plan_cache_;
        ctx.elastic = &elastic_;
        {
            const obs::Span span("policy.plan");
            state.plan = policy_.plan(job, ctx);
        }

        // Plan contract checks (see SchedulingPolicy::plan). An
        // elastic policy under an enabled run profile covers the
        // job's *work* at the planned widths; everyone else covers
        // its wall time exactly.
        if (policy_.elastic() && elastic_.enabled()) {
            double work = 0.0;
            for (const RunSegment &seg : state.plan.segments())
                work += static_cast<double>(seg.duration()) *
                        elastic_.throughputAt(seg.width);
            GAIA_ASSERT(
                work + 1e-6 >= static_cast<double>(job.length) &&
                    work < static_cast<double>(job.length) +
                               2.0 * elastic_.maxThroughput() + 1e-6,
                "policy '", policy_.name(), "' planned ", work,
                " work units for a ", job.length, "s job");
            GAIA_ASSERT(state.plan.maxWidth() <=
                            elastic_.maxInstances(),
                        "plan width ", state.plan.maxWidth(),
                        " exceeds the profile's maximum of ",
                        elastic_.maxInstances());
        } else {
            GAIA_ASSERT(state.plan.totalRunTime() == job.length,
                        "policy '", policy_.name(), "' planned ",
                        state.plan.totalRunTime(), "s for a ",
                        job.length, "s job");
        }
        GAIA_ASSERT(state.plan.plannedStart() >= job.submit,
                    "plan starts before submission");
        GAIA_ASSERT(state.plan.plannedStart() <=
                        job.submit + queue.max_wait,
                    "plan start violates the waiting bound W");
    }

    // The no-wait counterfactual starts here, at the admitted arrival
    // (SimulationResult::carbonNowaitGrams()). FaultSpec::validate
    // keeps it within 32 bits of the submit time.
    const Seconds delay = job.submit - submitted.submit;
    GAIA_ASSERT(delay <= kMaxFaultDuration + kMaxInputDuration, "job ",
                job.id, " arrived ", delay, "s after its submit time");
    if (delay != 0) {
        setJobEntry(arrival_delays_, outcomes_.size(), state.job,
                    static_cast<std::uint32_t>(delay));
    }

    // A validated job's length is positive, so a zero bound admits
    // none to spot.
    state.spot_eligible =
        (strategy_ == ResourceStrategy::SpotFirst ||
         strategy_ == ResourceStrategy::SpotReserved) &&
        job.length <= cluster_.spot_max_length;

    dispatch(slot);
}

bool
OnlineScheduler::retryArrivalLater(std::uint32_t slot)
{
    JobState &state = states_[slot];
    // Knob defaults apply when a faulty source is wired up without
    // a cluster-side injector.
    const FaultSpec defaults;
    const FaultSpec &spec =
        faults_ != nullptr ? faults_->spec() : defaults;
    if (state.cis_attempts == 0)
        ++faults_injected_; // the outage counts once per job
    if (static_cast<int>(state.cis_attempts) >=
        spec.cis_max_retries)
        return false;
    // Bounded retry with exponential backoff: base, 2x, 4x, ...
    const Seconds backoff =
        spec.cis_retry_backoff << state.cis_attempts;
    ++state.cis_attempts;
    ++cis_retries_;
    // The job effectively re-arrives at the probe instant, right
    // after that instant's first arrivals, and plans there with
    // ctx.now == the admitted submit.
    scheduleForSlot(events_.now() + backoff, EvRetryArrival, slot,
                    0, kRetryPriority);
    return true;
}

void
OnlineScheduler::dispatch(std::uint32_t slot)
{
    const JobState &state = states_[slot];
    // ReservedFirst and SpotReserved hold an off-spot job for
    // reserved capacity, work-conserving: it runs at once when the
    // cores are free, even if the policy preferred to wait.
    // Suspend-resume plans are not work-conserving; they follow their
    // plan like every other job.
    const bool waits_for_reserved =
        (strategy_ == ResourceStrategy::ReservedFirst ||
         strategy_ == ResourceStrategy::SpotReserved) &&
        !state.spot_eligible && !state.plan.isSuspendResume();
    if (!waits_for_reserved) {
        followPlan(slot);
        return;
    }
    if (startOnReserved(slot))
        return;
    pending_.emplace(state.plan.plannedStart(), slot);
    scheduleForSlot(state.plan.plannedStart(), EvPlannedStart, slot);
}

void
OnlineScheduler::followPlan(std::uint32_t slot)
{
    const JobState &state = states_[slot];
    if (strategy_ == ResourceStrategy::OnDemandOnly) {
        // Pure on-demand placement touches no shared state (no
        // reserved pool, no evictions), so deferring each segment
        // through the event heap only reorders identical
        // recordSegment calls — record them directly instead. This
        // cuts a heap push/pop + dispatch per job on the sweep hot
        // path.
        for (std::size_t s = 0; s < state.plan.segmentCount(); ++s) {
            const RunSegment &seg = state.plan.segment(s);
            recordSegment(state.job, seg.start, seg.end,
                          PurchaseOption::OnDemand, seg.width);
        }
        notifyJobEnd(state.job, state.plan.plannedEnd());
        return;
    }
    for (std::size_t s = 0; s < state.plan.segmentCount(); ++s) {
        scheduleForSlot(state.plan.segment(s).start, EvPlaceSegment,
                        slot, static_cast<std::int64_t>(s));
    }
}

void
OnlineScheduler::placeSegment(std::uint32_t slot, std::size_t seg_idx)
{
    const JobState &state = states_[slot];
    if (state.evictions > 0)
        return; // plan superseded by an eviction restart
    const RunSegment &seg = state.plan.segment(seg_idx);
    GAIA_ASSERT(events_.now() == seg.start, "segment event fired at ",
                events_.now(), " for a segment starting at ",
                seg.start);
    const bool final_slice = seg_idx + 1 == state.plan.segmentCount();
    if (state.spot_eligible) {
        runSpotSlice(slot, seg.start, seg.end, seg.width, final_slice);
        return;
    }
    placeSlice(state.job, seg.start, seg.end, seg.width);
    if (final_slice)
        notifyJobEnd(state.job, seg.end);
}

void
OnlineScheduler::runSpotSlice(std::uint32_t slot, Seconds from,
                              Seconds to, int width,
                              bool final_slice)
{
    JobState &state = states_[slot];

    // The independent per-slice eviction draw is sampled before the
    // storm check so the RNG stream — and with it every faults-off
    // simulation — is bit-identical whether or not an injector is
    // wired up.
    const Seconds offset =
        eviction_.sampleEvictionOffset(rng_, to - from);
    Seconds evict_at = offset < 0 ? -1 : from + offset;
    bool storm = false;
    if (faults_ != nullptr && faults_->storms()) {
        const Seconds strike = faults_->firstStormIn(from, to);
        if (strike >= 0 && (evict_at < 0 || strike < evict_at)) {
            // Correlated mass revocation: every spot slice crossing
            // the strike instant is evicted together.
            evict_at = strike;
            storm = true;
        }
    }
    if (evict_at < 0) {
        recordSegment(state.job, from, to, PurchaseOption::Spot, width);
        if (final_slice)
            notifyJobEnd(state.job, to);
        return;
    }

    // Evicted: this slice (and any previously completed slices) is
    // wasted; the paper assumes all progress is lost. A width-w gang
    // loses all w instances' work together. The restart records the
    // job's one surviving slice, so every slice before it is lost
    // (SimulationResult::lostSlices()).
    if (storm)
        ++faults_injected_;
    if (evict_at > from)
        recordSegment(state.job, from, evict_at, PurchaseOption::Spot,
                      width);
    // A counted eviction also marks the rest of the plan inert (see
    // placeSegment). A job is evicted at most 1 + kMaxStormSpotRetries
    // times, which the 8-bit count holds (sim/results.h).
    GAIA_ASSERT(state.evictions < std::numeric_limits<std::uint8_t>::max(),
                "job ", jobAt(state.job).id, " evicted ",
                static_cast<int>(state.evictions), " times");
    ++state.evictions;
    setJobEntry(job_evictions_, outcomes_.size(), state.job,
                state.evictions);
    scheduleForSlot(evict_at, EvRestartAfterEviction, slot);
}

void
OnlineScheduler::restartAfterEviction(std::uint32_t slot, Seconds at)
{
    JobState &state = states_[slot];
    // A restart abandons the (now stale) plan and re-runs the whole
    // job contiguously at the run profile's full width, covering its
    // work in ceil(length / maxThroughput) seconds: exactly the
    // length at fixed width, whose throughput is 1.0.
    const int width = elastic_.maxInstances();
    const auto duration = static_cast<Seconds>(std::ceil(
        static_cast<double>(asRunLength(jobAt(state.job), faults_)) /
        elastic_.maxThroughput()));
    // Under the storm model a bounded number of restarts re-attempt
    // spot first — that is what makes back-to-back revocations of
    // the same job possible — before falling through to the
    // baseline ladder below. Gated on storms() so the faults-off
    // path is untouched.
    if (faults_ != nullptr && faults_->storms() &&
        state.spot_eligible &&
        static_cast<int>(state.spot_retries) <
            faults_->spec().storm_spot_retries) {
        ++state.spot_retries;
        // Every instance of the gang re-acquires spot capacity
        // separately, so instance-level retries scale with width.
        spot_instance_retries_ +=
            static_cast<std::uint64_t>(width);
        // A restart re-runs the whole job, so surviving it settles
        // the job.
        runSpotSlice(slot, at, at + duration, width,
                     /*final_slice=*/true);
        return;
    }
    // Restart the full job; prefer a free reserved core, matching
    // the paper ("on either on-demand or reserved instances based
    // on availability"). The restart never returns to spot.
    placeSlice(state.job, at, at + duration, width);
    notifyJobEnd(state.job, at + duration);
}

bool
OnlineScheduler::runOnReserved(std::uint32_t job, Seconds from,
                               Seconds to, int width)
{
    const int cores = jobAt(job).cpus * width;
    if (!pool_.canFit(cores))
        return false;
    pool_.acquire(cores);
    recordSegment(job, from, to, PurchaseOption::Reserved, width);
    events_.schedule(to, kActionPriority,
                     SimEvent{EvPoolRelease,
                              static_cast<std::uint32_t>(cores), 0});
    return true;
}

void
OnlineScheduler::placeSlice(std::uint32_t job, Seconds from,
                            Seconds to, int width)
{
    if (!runOnReserved(job, from, to, width))
        recordSegment(job, from, to, PurchaseOption::OnDemand, width);
}

bool
OnlineScheduler::startOnReserved(std::uint32_t slot)
{
    const JobState &state = states_[slot];
    // Only single-segment plans take the work-conserving path; the
    // run keeps the planned duration and width but starts now.
    GAIA_ASSERT(!state.plan.isSuspendResume(),
                "work-conserving start of a suspend-resume plan");
    const Seconds end = events_.now() + state.plan.totalRunTime();
    if (!runOnReserved(state.job, events_.now(), end,
                       state.plan.segment(0).width))
        return false;
    notifyJobEnd(state.job, end);
    return true;
}

void
OnlineScheduler::recordSegment(std::uint32_t job, Seconds from,
                               Seconds to, PurchaseOption option,
                               int width)
{
    const std::size_t recorded = segment_starts_.size();
    GAIA_ASSERT(recorded < std::numeric_limits<std::uint32_t>::max(),
                "segment columns outgrew their 32-bit indices");
    if (segment_jobs_.empty() && job < last_segment_job_) {
        // The first placement out of job order: log every job from
        // here on, starting with the grouped prefix (each
        // segment_end counts its job's slices until finalize).
        segment_jobs_.reserve(segment_starts_.capacity());
        for (std::uint32_t j = 0; j <= last_segment_job_; ++j)
            segment_jobs_.insert(segment_jobs_.end(),
                                 outcomes_[j].segment_end, j);
    }
    if (segment_jobs_.empty())
        last_segment_job_ = job;
    else
        segment_jobs_.push_back(job);
    // The constructor asserts the slice is non-empty and fits its
    // 48-bit start, 32-bit duration and 8-bit width; a validated job
    // keeps inside all three (sim/results.h).
    const PlacedSegment seg(from, to, option, width);
    const std::size_t capacity = segment_starts_.capacity();
    appendSegmentField(segment_starts_hi_, recorded, capacity,
                       static_cast<std::uint16_t>(seg.start() >> 32),
                       std::uint16_t{0});
    appendSegmentField(segment_widths_, recorded, capacity, seg.width,
                       std::uint8_t{1});
    appendSegmentField(segment_options_, recorded, capacity, seg.option,
                       PurchaseOption::OnDemand);
    if (!segment_durations_.empty() || job != recorded ||
        seg.duration() != asRunLength(jobAt(job), faults_)) {
        if (segment_durations_.empty()) {
            // The first placement that is not its job's only slice at
            // its as-run length (a placement out of job order is not
            // placement k of job k either): every one before it was.
            segment_durations_.reserve(capacity);
            for (std::uint32_t j = 0; j < recorded; ++j)
                segment_durations_.push_back(static_cast<std::uint32_t>(
                    asRunLength(jobAt(j), faults_)));
        }
        segment_durations_.push_back(
            static_cast<std::uint32_t>(seg.duration()));
    }
    segment_starts_.push_back(static_cast<std::uint32_t>(seg.start()));
    ++outcomes_[job].segment_end;
}

void
OnlineScheduler::onPlannedStart(std::uint32_t slot)
{
    const JobState &state = states_[slot];
    // The job still waits unless a reserved release started it
    // early and took it off the pending index.
    const auto [first, last] =
        pending_.equal_range(state.plan.plannedStart());
    const auto entry =
        std::find_if(first, last, [slot](const auto &waiting) {
            return waiting.second == slot;
        });
    if (entry == last)
        return;
    pending_.erase(entry);
    // Planned start reached without reserved capacity: on-demand,
    // at the plan's duration and width (single-segment plans only).
    const Seconds end = events_.now() + state.plan.totalRunTime();
    recordSegment(state.job, events_.now(), end,
                  PurchaseOption::OnDemand, state.plan.segment(0).width);
    notifyJobEnd(state.job, end);
}

void
OnlineScheduler::drainPending()
{
    // Work-conserving scan in planned-start order; first-fit keeps
    // small jobs from starving behind a wide one.
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (startOnReserved(it->second))
            it = pending_.erase(it);
        else
            ++it;
    }
}

void
OnlineScheduler::groupSegmentsByJob()
{
    // Turn each job's slice count into the end of its range.
    std::uint32_t end = 0;
    for (JobOutcome &o : outcomes_) {
        end += o.segment_end;
        o.segment_end = end;
    }
    if (segment_jobs_.empty())
        return; // recorded in job order
    // Turn each job index into its slot, filling each range from its
    // end: walking the log backward gives a job's last placement the
    // range's last slot, so a job's slices keep their record order,
    // and leaves each segment_end at its range's start meanwhile.
    for (std::size_t k = segment_jobs_.size(); k-- > 0;)
        segment_jobs_[k] = --outcomes_[segment_jobs_[k]].segment_end;
    // A range starts where the previous one ends.
    for (std::size_t i = 0; i + 1 < outcomes_.size(); ++i)
        outcomes_[i].segment_end = outcomes_[i + 1].segment_end;
    outcomes_.back().segment_end = end;
    // Apply the permutation in place by following its cycles: each
    // swap puts one placement's fields in their final slot of every
    // column that holds them.
    const auto swap_entries = [](auto &column, std::uint32_t a,
                                 std::uint32_t b) {
        if (!column.empty())
            std::swap(column[a], column[b]);
    };
    for (std::uint32_t k = 0; k < segment_jobs_.size(); ++k) {
        while (segment_jobs_[k] != k) {
            const std::uint32_t to = segment_jobs_[k];
            std::swap(segment_starts_[k], segment_starts_[to]);
            swap_entries(segment_starts_hi_, k, to);
            swap_entries(segment_widths_, k, to);
            swap_entries(segment_options_, k, to);
            swap_entries(segment_durations_, k, to);
            std::swap(segment_jobs_[k], segment_jobs_[to]);
        }
    }
    segment_jobs_ = Column<std::uint32_t>();
}

void
OnlineScheduler::finalizeInto(SimulationResult &result)
{
    groupSegmentsByJob();
    result.jobs = std::move(jobs_);
    streamed_ = nullptr;
    result.outcomes = std::move(outcomes_);
    result.segment_starts = std::move(segment_starts_);
    result.segment_starts_hi = std::move(segment_starts_hi_);
    result.segment_widths = std::move(segment_widths_);
    result.segment_options = std::move(segment_options_);
    result.segment_durations = std::move(segment_durations_);
    // A per-job column ends at the latest job that wrote an entry;
    // streamed jobs admitted after it read 0.
    if (!job_evictions_.empty())
        job_evictions_.resize(result.outcomes.size());
    result.job_evictions = std::move(job_evictions_);
    if (!arrival_delays_.empty())
        arrival_delays_.resize(result.outcomes.size());
    result.arrival_delays = std::move(arrival_delays_);
    // What each job's carbon and money derive from, set before the
    // loop below accounts by the same rules.
    result.pricing = cluster_.pricing;
    result.startup_overhead = cluster_.startup_overhead;
    result.carbon = cis_.trace();
    result.energy = cluster_.energy;
    if (faults_ != nullptr)
        result.faults = *faults_;

    if (cluster_.reservation_horizon == 0) {
        // Online mode without a contracted horizon: cover the
        // observed schedule, rounded up to whole days.
        Seconds last_finish = 0;
        for (const JobOutcome &o : result.outcomes) {
            for (const PlacedSegment seg : result.placements(o))
                last_finish = std::max(last_finish, seg.end());
        }
        cluster_.reservation_horizon = std::max<Seconds>(
            ((last_finish + kSecondsPerDay - 1) / kSecondsPerDay) *
                kSecondsPerDay,
            kSecondsPerDay);
    }
    const Seconds horizon = cluster_.reservation_horizon;
    // The reservation pays for [0, horizon) only, as its upfront cost
    // does, so reserved work past it counts toward neither the pool's
    // utilization nor, hour by hour, its busy share for the
    // idle-power draw (0 under the paper's assumption, which needs no
    // table).
    double reserved_in_horizon = 0.0;
    const bool idle_power = cluster_.reserved_cores > 0 &&
                            cluster_.reserved_idle_power_fraction > 0.0;
    const auto hours = static_cast<std::size_t>(
        (horizon + kSecondsPerHour - 1) / kSecondsPerHour);
    std::vector<double> busy(idle_power ? hours : 0, 0.0);
    const bool elastic_job = elastic_.enabled();
    bool horizon_overrun_warned = false;
    std::uint64_t evicted_jobs = 0;
    for (const JobOutcome &o : result.outcomes) {
        const Job &job = result.job(o);
        const SegmentRange segs = result.placements(o);
        GAIA_ASSERT(!segs.empty(), "job ", job.id, " never executed");
        const std::size_t lost = result.lostSlices(o);
        const Seconds length = result.length(o);
        Seconds useful = 0;
        double useful_work = 0.0;
        double carbon_g = 0.0;
        // Every path records a job's slices in time order: plans are
        // built in time order, a job's events fire in time order, and
        // a restart begins at its eviction instant and skips the rest
        // of the evicted plan. So the range needs no sort, and the
        // end of its last slice, a survivor, is the job's finish.
        Seconds finish = 0;
        for (std::size_t k = 0; k < segs.size(); ++k) {
            const PlacedSegment seg = segs[k];
            const Seconds start = seg.start();
            GAIA_ASSERT(start >= finish, "job ", job.id,
                        " has a slice at ", start,
                        " before its previous one ends at ", finish);
            GAIA_ASSERT(k >= lost || seg.option == PurchaseOption::Spot,
                        "job ", job.id, " lost a slice off spot");
            finish = seg.end();
            // Every per-instance quantity scales with the gang
            // width (1 for fixed-width jobs, so their books are
            // bit-identical to before the field existed).
            const int cores = job.cpus * seg.width;
            const double core_seconds =
                static_cast<double>(seg.duration()) * cores;
            carbon_g = result.addSliceCarbon(carbon_g, seg, cores);
            result.energy_kwh +=
                cluster_.energy.kilowattHours(core_seconds);

            // Instance lifecycle overhead: each non-reserved
            // segment is a fresh cloud acquisition whose spin-up
            // time is billed and emits carbon without doing work.
            const double overhead_core_seconds =
                seg.overheadCoreSeconds(cores,
                                        cluster_.startup_overhead);
            if (overhead_core_seconds > 0.0) {
                result.overhead_core_seconds +=
                    overhead_core_seconds;
                result.energy_kwh += cluster_.energy.kilowattHours(
                    overhead_core_seconds);
            }

            switch (seg.option) {
              case PurchaseOption::Reserved: {
                result.reserved_core_seconds += core_seconds;
                // A slice inside the horizon adds the same double as
                // above, so the two sums differ only past it.
                const Seconds end = std::min(seg.end(), horizon);
                if (start < end)
                    reserved_in_horizon +=
                        static_cast<double>(end - start) * cores;
                if (!busy.empty()) {
                    // Each addend is an exact integer (at most an
                    // hour times 2^26 cores), so the sums do not
                    // depend on the order of the walk.
                    for (Seconds at = start; at < end;) {
                        const SlotIndex hour = slotOf(at);
                        const Seconds next =
                            std::min(slotStart(hour + 1), end);
                        busy[static_cast<std::size_t>(hour)] +=
                            static_cast<double>(next - at) * cores;
                        at = next;
                    }
                }
                break;
              }
              case PurchaseOption::OnDemand:
                result.on_demand_core_seconds +=
                    core_seconds + overhead_core_seconds;
                break;
              case PurchaseOption::Spot:
                result.spot_core_seconds +=
                    core_seconds + overhead_core_seconds;
                break;
            }
            if (k >= lost) {
                useful += seg.duration();
                useful_work +=
                    static_cast<double>(seg.duration()) *
                    (elastic_job ? elastic_.throughputAt(seg.width)
                                 : 1.0);
            }
        }
        if (elastic_job) {
            // Elastic plans deliver work in whole-second chunks per
            // instance, so up to one second of over-delivery per
            // marginal instance plus the base chunk can accrue —
            // bounded by 2 x maxThroughput seconds of work.
            const auto work = static_cast<double>(length);
            GAIA_ASSERT(useful_work + 1e-6 >= work &&
                            useful_work <
                                work + 2.0 * elastic_.maxThroughput() +
                                    1e-6,
                        "job ", job.id, " delivered ", useful_work,
                        " work-seconds, expected about ", length);
        } else {
            GAIA_ASSERT(useful == length, "job ", job.id, " ran ", useful,
                        "s of useful work, expected ", length);
        }
        if (finish > horizon && !horizon_overrun_warned) {
            // A horizon derived at finalize covers every slice, but
            // one derived from the nominal trace or given by the user
            // can be shorter (faults stretch, delay and restart
            // jobs), so the books stay correct and the overrun is
            // surfaced once.
            warn("schedule extends past the configured reservation "
                 "horizon (job ", job.id, " finishes at ", finish,
                 " > ", horizon,
                 "); reserved upfront cost still covers only the "
                 "configured horizon");
            horizon_overrun_warned = true;
        }

        result.carbon_kg += carbon_g / 1000.0;
        result.carbon_nowait_kg += result.carbonNowaitGrams(o) / 1000.0;
        // A job that lost nothing would add 0.0, which leaves the sum's
        // bits as they are, so only the rare evicted job walks its
        // range again.
        if (lost > 0)
            result.lost_core_seconds += result.lostCoreSeconds(o);
        const int evictions = result.evictions(o);
        result.eviction_count += static_cast<std::size_t>(evictions);
        if (evictions > 0)
            ++evicted_jobs;
    }
    if (evicted_jobs > 0)
        c_jobs_evicted.add(evicted_jobs);

    // Split the variable cost by option from the usage totals so the
    // per-job and cluster books agree by construction.
    result.on_demand_cost = cluster_.pricing.usageCost(
        PurchaseOption::OnDemand, result.on_demand_core_seconds);
    result.spot_cost = cluster_.pricing.usageCost(
        PurchaseOption::Spot, result.spot_core_seconds);

    // Idle-reserved power draw: integrate CI over the idle share of
    // the pool hour by hour.
    if (idle_power) {
        const double idle_kw_per_core =
            cluster_.energy.kilowatts(1) *
            cluster_.reserved_idle_power_fraction;
        for (std::size_t hour = 0; hour < busy.size(); ++hour) {
            const Seconds hour_start =
                slotStart(static_cast<SlotIndex>(hour));
            const Seconds hour_len = std::min<Seconds>(
                kSecondsPerHour, horizon - hour_start);
            const double capacity =
                static_cast<double>(cluster_.reserved_cores) *
                static_cast<double>(hour_len);
            const double idle_core_seconds =
                std::max(0.0, capacity - busy[hour]);
            const double kwh =
                idle_kw_per_core * idle_core_seconds /
                static_cast<double>(kSecondsPerHour);
            result.idle_energy_kwh += kwh;
            result.idle_carbon_kg +=
                kwh *
                cis_.trace().atSlot(static_cast<SlotIndex>(hour)) /
                1000.0;
        }
        result.energy_kwh += result.idle_energy_kwh;
        result.carbon_kg += result.idle_carbon_kg;
    }

    result.reserved_cores = cluster_.reserved_cores;
    result.horizon = horizon;
    result.reserved_upfront = cluster_.pricing.reservedUpfront(
        cluster_.reserved_cores, horizon);
    if (cluster_.reserved_cores > 0) {
        result.reserved_utilization =
            reserved_in_horizon /
            (static_cast<double>(cluster_.reserved_cores) *
             static_cast<double>(horizon));
    }
}

SimulationResult
OnlineScheduler::finalize()
{
    GAIA_ASSERT(!finalized_, "finalize() called twice");
    GAIA_ASSERT(events_.empty(),
                "finalize() with events still pending; call "
                "drain() first");
    GAIA_ASSERT(pending_.empty(), "jobs left pending after drain");
    GAIA_ASSERT(pool_.inUse() == 0,
                "reserved cores leaked: ", pool_.inUse());
    // Exactly-once settlement: no job is left with queued work.
    GAIA_ASSERT(jobSlotsInUse() == 0, jobSlotsInUse(),
                " job slots still in use after drain");
    finalized_ = true;

    SimulationResult result;
    result.policy = policy_.name();
    result.strategy = strategyName(strategy_);
    result.region = cis_.trace().region();
    result.workload = workload_;
    finalizeInto(result);

    // Flush this simulation's totals into the process-wide metrics
    // (finalizeInto's walk flushed the evicted-job count).
    c_events.add(events_dispatched_);
    c_jobs_completed.add(result.outcomes.size());
    c_evictions.add(result.eviction_count);
    if (faults_injected_ > 0)
        c_faults_injected.add(faults_injected_);
    if (cis_retries_ > 0)
        c_cis_retries.add(cis_retries_);
    if (degraded_plans_ > 0)
        c_degraded.add(degraded_plans_);
    if (spot_instance_retries_ > 0)
        c_spot_instance_retries.add(spot_instance_retries_);
    if (degraded_instance_seconds_ > 0) {
        c_degraded_instance_hours.add(
            (degraded_instance_seconds_ + kSecondsPerHour - 1) /
            kSecondsPerHour);
    }
    return result;
}

} // namespace gaia
