/**
 * @file
 * Simulation outputs: per-job outcomes, the columns of their placed
 * segments, and cluster-level aggregates.
 *
 * A sweep holds a result for every cell, so a result holds each
 * field of its per-job and per-slice records in a column of its own,
 * and no column whose every entry is its default: a fault-free
 * on-demand run of start-time policies holds a 4-byte outcome per job
 * and a 4-byte start word per slice, and nothing else grows with it.
 * SimulationResult::placements() reads a job's slices back as
 * PlacedSegment values, and checkColumns() checks every column's
 * shape.
 *
 * GAIA accounts exactly as the paper prescribes (§4.1): on-demand
 * and spot usage is billed pay-as-you-go, reserved capacity is paid
 * upfront for the whole horizon regardless of utilization, energy
 * and carbon are attributed by actual usage only (idle reserved
 * cores emit nothing), and work lost to spot evictions still costs
 * money and carbon.
 */

#ifndef GAIA_SIM_RESULTS_H
#define GAIA_SIM_RESULTS_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cloud/pricing.h"
#include "cloud/purchase.h"
#include "common/column.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/time.h"
#include "fault/fault_spec.h"
#include "fault/injector.h"
#include "trace/carbon_trace.h"
#include "workload/job.h"

namespace gaia {

/** Longest slice a result can hold: its duration column is 32-bit. */
constexpr Seconds kMaxSegmentDuration =
    std::numeric_limits<std::uint32_t>::max();
/** Latest start a result can hold: its two start columns hold 48
 *  bits. */
constexpr Seconds kMaxSegmentStart = (Seconds{1} << 48) - 1;
/** Widest gang a result can hold: its width column is 8-bit. */
constexpr int kMaxSegmentWidth = std::numeric_limits<std::uint8_t>::max();

// The engine records nothing these fields cannot hold: validateJob
// bounds every job's submit and length by kMaxInputDuration (and
// FaultInjector::stretched saturates there), no slice outlasts its
// job, and ElasticProfile::validate caps the width.
static_assert(kMaxInputDuration <= kMaxSegmentDuration,
              "a century must fit the 32-bit slice duration");
static_assert(kMaxElasticInstances <= kMaxSegmentWidth);
// The latest slice validated inputs reach starts after a century
// submit (validateJob), a week's start delay and a century retry
// ladder (FaultSpec::validate), a century wait (the CLI reads a
// queue's bound as a duration, at most a century), a century-long
// plan, and 1 + kMaxStormSpotRetries restarts, each at most a century
// long: about 21 centuries, below 2^37 s. The constructor asserts
// the bound for any other input.
static_assert(kMaxInputDuration + kMaxFaultDuration +
                      kMaxInputDuration + kMaxInputDuration +
                      kMaxInputDuration +
                      (1 + kMaxStormSpotRetries) * kMaxInputDuration <=
                  kMaxSegmentStart,
              "the latest start validated inputs reach must fit the "
              "48-bit slice start");

/**
 * One executed (or lost) slice of a job on a purchase option: the
 * value the engine records and SimulationResult::placements() yields.
 * No column holds it whole: a result keeps each field in a column of
 * its own (SimulationResult::segment_starts and the four beside it)
 * and leaves a field's column empty while every slice takes its
 * default. Whether an eviction lost the slice is not stored either:
 * it follows from its place in its job's range
 * (SimulationResult::lostSlices()). The one constructor takes the
 * end, so no initializer can pass an end where a duration belongs,
 * and asserts that every field fits its column.
 */
struct PlacedSegment
{
    /** The slice [start, end) at `width` instances; asserts it starts
     *  in [0, kMaxSegmentStart], is non-empty, at most
     *  kMaxSegmentDuration long and 1 to kMaxSegmentWidth wide. */
    PlacedSegment(Seconds start, Seconds end, PurchaseOption option,
                  int width)
        : start_(start),
          duration_(static_cast<std::uint32_t>(end - start)),
          width(static_cast<std::uint8_t>(width)),
          option(option)
    {
        GAIA_ASSERT(start >= 0 && start <= kMaxSegmentStart, "slice at ",
                    start, " starts outside the 48-bit start");
        GAIA_ASSERT(end > start && end - start <= kMaxSegmentDuration,
                    "slice [", start, ", ", end,
                    ") is empty or outlasts the 32-bit duration");
        GAIA_ASSERT(width >= 1 && width <= kMaxSegmentWidth,
                    "slice width ", width, " outside [1, ",
                    kMaxSegmentWidth, "]");
    }

    Seconds start() const { return start_; }
    Seconds end() const { return start_ + duration_; }
    Seconds duration() const { return duration_; }

    /** Core-seconds of start-up overhead this slice carries at
     *  `cores` cores: every non-reserved slice is a fresh cloud
     *  acquisition whose spin-up is billed and draws power without
     *  doing work. */
    double overheadCoreSeconds(int cores, Seconds startup_overhead) const
    {
        if (option == PurchaseOption::Reserved || startup_overhead <= 0)
            return 0.0;
        return static_cast<double>(startup_overhead) * cores;
    }

  private:
    friend class SegmentRange;

    /** A slice read back from a result's columns, whose entries the
     *  checked constructor vetted when the engine recorded them. */
    PlacedSegment(Seconds start, std::uint32_t duration,
                  std::uint8_t width, PurchaseOption option)
        : start_(start), duration_(duration), width(width), option(option)
    {
    }

    Seconds start_;
    std::uint32_t duration_;

  public:
    /** Concurrent instances during the slice; 1 for every
     *  fixed-width job, above 1 only for elastic plans. */
    std::uint8_t width;
    PurchaseOption option;
};

/**
 * One job's slices, read from a result's segment columns
 * (SimulationResult::placements()): a view that yields each slice as
 * a PlacedSegment value, built from its entry of every column that
 * holds one and the column's default otherwise. Valid while the
 * result's segment columns are neither changed nor freed.
 */
class SegmentRange
{
  public:
    class Iterator;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slice `k` of the range; asserts that there is one. */
    PlacedSegment operator[](std::size_t k) const
    {
        GAIA_ASSERT(k < size_, "slice ", k, " of a range of ", size_);
        return PlacedSegment(
            (starts_hi_ == nullptr
                 ? Seconds{0}
                 : static_cast<Seconds>(starts_hi_[k]) << 32) |
                starts_[k],
            durations_ == nullptr ? duration_ : durations_[k],
            widths_ == nullptr ? std::uint8_t{1} : widths_[k],
            options_ == nullptr ? PurchaseOption::OnDemand : options_[k]);
    }
    PlacedSegment front() const { return (*this)[0]; }
    PlacedSegment back() const { return (*this)[size_ - 1]; }

    /** The range's first `n` slices; asserts it has them. */
    SegmentRange first(std::size_t n) const
    {
        GAIA_ASSERT(n <= size_, "first ", n, " of a range of ", size_);
        SegmentRange prefix = *this;
        prefix.size_ = n;
        return prefix;
    }

    Iterator begin() const;
    Iterator end() const;

  private:
    friend struct SimulationResult;

    /** The range's entries of each column, null for an empty
     *  optional column, whose default every slice takes. */
    const std::uint32_t *starts_ = nullptr;
    const std::uint16_t *starts_hi_ = nullptr;
    const std::uint32_t *durations_ = nullptr;
    const std::uint8_t *widths_ = nullptr;
    const PurchaseOption *options_ = nullptr;
    /** Every slice's duration while durations_ is null: a range of
     *  at most one slice, lasting its job's as-run length. */
    std::uint32_t duration_ = 0;
    std::size_t size_ = 0;
};

/** Yields a SegmentRange's slices in order, by value. It holds a
 *  copy of the range, so it stays valid as long as the columns do. */
class SegmentRange::Iterator
{
  public:
    using iterator_category = std::input_iterator_tag;
    using value_type = PlacedSegment;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = PlacedSegment;

    Iterator() = default;
    PlacedSegment operator*() const { return range_[k_]; }
    Iterator &operator++()
    {
        ++k_;
        return *this;
    }
    Iterator operator++(int)
    {
        Iterator before = *this;
        ++k_;
        return before;
    }
    /** Compares positions only: iterators of one range. */
    bool operator==(const Iterator &other) const { return k_ == other.k_; }

  private:
    friend class SegmentRange;
    Iterator(const SegmentRange &range, std::size_t k)
        : range_(range), k_(k)
    {
    }
    SegmentRange range_;
    std::size_t k_ = 0;
};

inline SegmentRange::Iterator
SegmentRange::begin() const
{
    return Iterator(*this, 0);
}

inline SegmentRange::Iterator
SegmentRange::end() const
{
    return Iterator(*this, size_);
}

/**
 * What the run decided for one job that follows from nothing else:
 * where its slices end in the result's segment columns. The job as
 * submitted (id, submit time, length, cpus) lives in the result's
 * shared job column (SimulationResult::job()), its placed segments in
 * the segment columns (SimulationResult::placements()), and its spot
 * evictions and admitted arrival in two per-job columns that a run
 * allocates only when one of its jobs has a nonzero entry
 * (SimulationResult::evictions(), arrivalDelay()). Its as-run length
 * derives from the job and the run's fault injector
 * (SimulationResult::length()), and start, finish, waiting, lost
 * slices and core-seconds, start-up overhead, variable cost, carbon
 * and the no-wait counterfactual carbon from the segments (with the
 * result's price list, carbon trace and power model) rather than
 * being stored beside them. A sweep holds one of these per job per
 * cell, so it is one 32-bit word (tests/sim/test_layout_budget.cc
 * pins the byte budget). Outcomes hold indices into the columns, not
 * pointers, so copying a result keeps them valid.
 */
struct JobOutcome
{
    /** One past this job's last slice in the result's segment
     *  columns. The range starts at the previous outcome's
     *  segment_end (0 for the first), since the columns are grouped
     *  job by job in outcome order. While the engine runs it counts
     *  the job's slices, and finalize turns the counts into ends. */
    std::uint32_t segment_end = 0;
};

/**
 * Cluster-level aggregates and the per-job columns of one simulation
 * run.
 *
 * `jobs` holds the submitted jobs, outcome i's at position i: a
 * replayed trace's own jobs (JobTrace::sharedJobs(), shared, never
 * copied), or a streamed run's admitted jobs in admission order,
 * which need not be sorted. The segment columns hold every job's
 * placements, including lost spot slices, one field per column,
 * grouped job by job in `outcomes` order; each job's range is
 * chronological once the scheduler has finalized the run. Columns
 * per result, rather than a list inside each outcome, mean recording
 * placements allocates nothing per job and an outcome carries no
 * inline slots its job may not use. `segment_starts` holds an entry
 * for every slice. The other four segment columns are either empty,
 * meaning every slice takes the column's default, or hold one entry
 * per slice, and placements() reads them either way:
 *  - `segment_starts_hi`: the start's 16 high bits, 0 by default;
 *  - `segment_widths`: 1 by default;
 *  - `segment_options`: on demand by default;
 *  - `segment_durations`: empty only when every range is one slice
 *    lasting its job's as-run length (length()), which is what it
 *    holds for each.
 * A fault-free on-demand run of start-time policies fills only
 * `segment_starts`, 4 bytes per slice. `job_evictions` and
 * `arrival_delays` are per-job columns that are almost always all
 * zeros: no on-demand job is evicted, and every job of a fault-free
 * run arrives at its submit time. Each is either empty, meaning 0
 * for every job, or holds one entry per outcome; evictions() and
 * arrivalDelay() read them either way. checkColumns() checks every
 * column's shape. All are Columns (common/column.h): one of 128 KiB
 * or more is mapped for itself, and its pages go back to the system
 * when the result frees it.
 */
struct SimulationResult
{
    std::string policy;
    std::string strategy;
    std::string region;
    std::string workload;

    /** The submitted jobs, one per outcome; shared with the trace
     *  or engine that made the result, so it stays valid after
     *  both are gone. */
    std::shared_ptr<const std::vector<Job>> jobs;
    Column<JobOutcome> outcomes;
    /** Each slice's start, its low 32 bits. */
    Column<std::uint32_t> segment_starts;
    /** Each slice's start, its high 16 bits; empty when every slice
     *  starts before 2^32 s. */
    Column<std::uint16_t> segment_starts_hi;
    /** Each slice's instances; empty when every slice is 1 wide. */
    Column<std::uint8_t> segment_widths;
    /** Each slice's purchase option; empty when every slice ran on
     *  demand. */
    Column<PurchaseOption> segment_options;
    /** Each slice's duration; empty when every job ran as one slice
     *  lasting its as-run length. */
    Column<std::uint32_t> segment_durations;
    /** Spot evictions each job suffered, outcome i's at position i;
     *  empty when the run evicted no job. */
    Column<std::uint8_t> job_evictions;
    // A job is evicted at most once from its plan and once per storm
    // re-attempt of spot, which FaultSpec::validate caps at
    // kMaxStormSpotRetries.
    static_assert(1 + kMaxStormSpotRetries <=
                      std::numeric_limits<std::uint8_t>::max(),
                  "a job's most evictions must fit the 8-bit count");
    /** Each job's admitted arrival minus its submit time, outcome i's
     *  at position i: a fault's start delay plus the carbon-source
     *  retry ladder. Empty when every job arrived at its submit time,
     *  as in every fault-free run. */
    Column<std::uint32_t> arrival_delays;
    // FaultSpec::validate bounds the start delay by kMaxFaultDuration
    // and the whole retry ladder by kMaxInputDuration, so no admitted
    // arrival lies further than their sum after its submit time.
    static_assert(kMaxFaultDuration + kMaxInputDuration <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "the longest delay and retry ladder must fit the "
                  "32-bit arrival offset");

    int reserved_cores = 0;
    Seconds horizon = 0;
    /** The price list and per-acquisition start-up overhead the run
     *  was billed under; each job's variable cost and overhead
     *  derive from its segments through them. */
    PricingModel pricing;
    Seconds startup_overhead = 0;
    /** The ground-truth carbon trace and power model the run was
     *  accounted against; each job's carbon derives from its segments
     *  through them and `startup_overhead`, and its no-wait carbon
     *  from its admitted arrival and length. The trace shares its
     *  tables with the run's, so a result stays valid after the
     *  trace, carbon source and engine that made it are gone. */
    CarbonTrace carbon;
    EnergyModel energy;
    /** The run's fault injector (plain data; no faults by default):
     *  a straggler's as-run length derives from it (length()). */
    FaultInjector faults;

    /** Dollars. */
    double reserved_upfront = 0.0;
    double on_demand_cost = 0.0;
    double spot_cost = 0.0;

    /** Emissions and energy (totals include the idle share). */
    double carbon_kg = 0.0;
    double carbon_nowait_kg = 0.0;
    double energy_kwh = 0.0;
    /** Share of the totals from idle-but-powered reserved cores. */
    double idle_carbon_kg = 0.0;
    double idle_energy_kwh = 0.0;

    /** Usage split, core-seconds. */
    double reserved_core_seconds = 0.0;
    double on_demand_core_seconds = 0.0;
    double spot_core_seconds = 0.0;
    double lost_core_seconds = 0.0;
    double overhead_core_seconds = 0.0;

    /** Reserved-pool utilization over the horizon, [0, 1]: the
     *  reserved core-seconds inside [0, horizon) over
     *  reserved_cores x horizon. Reserved work that faults stretch
     *  or delay past the horizon counts only in
     *  reserved_core_seconds. */
    double reserved_utilization = 0.0;
    std::size_t eviction_count = 0;

    /** Total dollars: upfront reservation + variable usage. */
    double totalCost() const
    {
        return reserved_upfront + on_demand_cost + spot_cost;
    }

    /** The submitted job `o` records: the job at `o`'s position in
     *  `outcomes`. Asserts that `o` is one of this result's
     *  outcomes and that the job column holds its job. */
    const Job &job(const JobOutcome &o) const { return jobAt(indexOf(o)); }

    /** `o`'s placements, chronological once finalized: the slices
     *  from the previous outcome's segment_end (0 for the first) up
     *  to `o`'s. Asserts that `o` is one of this result's outcomes,
     *  and, when `segment_durations` is empty, that its range is at
     *  most one slice, which lasts length(o). */
    SegmentRange placements(const JobOutcome &o) const
    {
        const std::size_t i = indexOf(o);
        const std::uint32_t first = rangeStart(i);
        SegmentRange range;
        range.size_ = o.segment_end - first;
        range.starts_ = segment_starts.data() + first;
        if (!segment_starts_hi.empty())
            range.starts_hi_ = segment_starts_hi.data() + first;
        if (!segment_widths.empty())
            range.widths_ = segment_widths.data() + first;
        if (!segment_options.empty())
            range.options_ = segment_options.data() + first;
        if (!segment_durations.empty()) {
            range.durations_ = segment_durations.data() + first;
        } else {
            GAIA_ASSERT(range.size_ <= 1, "outcome ", i, " has ",
                        range.size_,
                        " slices but the result holds no durations");
            // kMaxSegmentDuration holds any as-run length.
            if (range.size_ == 1)
                range.duration_ = static_cast<std::uint32_t>(
                    asRunLength(jobAt(i), &faults));
        }
        return range;
    }

    /** `o`'s spot evictions: its entry of `job_evictions`, 0 when
     *  the column is empty. */
    int evictions(const JobOutcome &o) const
    {
        return entryOf(job_evictions, o);
    }

    /** `o`'s admitted arrival minus its submit time: its entry of
     *  `arrival_delays`, 0 when the column is empty. */
    Seconds arrivalDelay(const JobOutcome &o) const
    {
        return entryOf(arrival_delays, o);
    }

    /** `o`'s length as run: its job's length, stretched if the run's
     *  injector makes the job a straggler (asRunLength()). */
    Seconds length(const JobOutcome &o) const
    {
        return asRunLength(job(o), &faults);
    }

    /** How many of `o`'s slices an eviction lost: a prefix of its
     *  range. The paper assumes an eviction loses all progress, and
     *  the engine restarts an evicted job as exactly one slice (a
     *  spot re-attempt that a storm evicts in turn restarts the same
     *  way), so every slice of an evicted job but its last is lost,
     *  and a job never evicted loses none. */
    std::size_t lostSlices(const JobOutcome &o) const
    {
        const std::size_t slices = o.segment_end - rangeStart(indexOf(o));
        return evictions(o) > 0 && slices > 0 ? slices - 1 : 0;
    }

    /** First instant any of `o`'s segments ran (the first segment's
     *  start); 0 without segments. */
    Seconds start(const JobOutcome &o) const
    {
        const SegmentRange segs = placements(o);
        return segs.empty() ? 0 : segs.front().start();
    }
    /** Instant `o` completed: the end of its last slice, which
     *  survived (lostSlices()); 0 without segments. */
    Seconds finish(const JobOutcome &o) const
    {
        const SegmentRange segs = placements(o);
        return segs.empty() ? 0 : segs.back().end();
    }
    /** Core-seconds `o` lost to evictions: the lost slices'
     *  duration x cpus x width, summed in segment order. */
    double lostCoreSeconds(const JobOutcome &o) const;
    /** Core-seconds of instance start-up overhead attributed to `o`:
     *  startup_overhead x cpus x width per non-reserved segment
     *  (lost ones included), summed in segment order. */
    double overheadCoreSeconds(const JobOutcome &o) const;
    /** `o`'s pay-as-you-go dollars: each on-demand or spot
     *  segment's core-seconds plus its start-up overhead, billed at
     *  `pricing` and summed in segment order. Lost work still costs
     *  money. */
    double variableCost(const JobOutcome &o) const;
    /** `grams` plus the CO2eq `seg` emits at `cores` cores under
     *  `carbon` and `energy`: first its run, then, for a slice that
     *  pays the start-up overhead, the spin-up just before it, whose
     *  part before t=0 is charged at slot 0's intensity. The one
     *  per-slice carbon rule: finalize and carbonGrams() both add
     *  every slice through it, in segment order, so their sums round
     *  alike. */
    double addSliceCarbon(double grams, const PlacedSegment &seg,
                          int cores) const;
    /** `o`'s attributed emissions, grams CO2eq: every segment's, lost
     *  work and start-up overhead included, through
     *  addSliceCarbon(). */
    double carbonGrams(const JobOutcome &o) const;
    /** `o`'s counterfactual emissions, grams CO2eq: its as-run
     *  length at its cpus, started at once at its admitted arrival
     *  (submit plus arrivalDelay()), under `carbon` and `energy`. */
    double carbonNowaitGrams(const JobOutcome &o) const
    {
        const Job &submitted = job(o);
        const Seconds arrival = submitted.submit + arrivalDelay(o);
        return carbon.gramsFor(arrival, arrival + length(o),
                               energy.kilowatts(submitted.cpus));
    }
    /** Emissions `o` saved versus running immediately, grams. */
    double carbonSaved(const JobOutcome &o) const
    {
        return carbonNowaitGrams(o) - carbonGrams(o);
    }

    /** Completion time: finish − submit. */
    Seconds completion(const JobOutcome &o) const
    {
        return finish(o) - job(o).submit;
    }
    /** Waiting (non-running) time: completion − useful run time.
     *  Negative for elastic jobs that finish faster than their
     *  single-instance length — a speedup, reported as-is. */
    Seconds waiting(const JobOutcome &o) const
    {
        return completion(o) - length(o);
    }

    /** Mean job waiting time, hours. */
    double meanWaitingHours() const;
    /** Mean job completion time, hours. */
    double meanCompletionHours() const;
    /** 95th-percentile waiting time, hours. */
    double p95WaitingHours() const;
    /** Total carbon saved versus immediate execution, kg. */
    double carbonSavedKg() const
    {
        return carbon_nowait_kg - carbon_kg;
    }

  private:
    /** `o`'s position in `outcomes`. Asserts that `o` is one of them:
     *  compared as addresses, since `o` may not point into
     *  `outcomes`. */
    std::size_t indexOf(const JobOutcome &o) const
    {
        const auto offset =
            reinterpret_cast<std::uintptr_t>(&o) -
            reinterpret_cast<std::uintptr_t>(outcomes.data());
        const std::size_t i = offset / sizeof(JobOutcome);
        GAIA_ASSERT(i < outcomes.size() &&
                        offset % sizeof(JobOutcome) == 0,
                    "outcome is not one of this result's");
        return i;
    }

    /** The job at position `i` of the job column; asserts that the
     *  column holds it. */
    const Job &jobAt(std::size_t i) const
    {
        GAIA_ASSERT(jobs != nullptr && i < jobs->size(), "outcome ", i,
                    " has no job in the result's job column");
        return (*jobs)[i];
    }

    /** Where outcome `i`'s range starts: the previous outcome's
     *  segment_end, 0 for the first. */
    std::uint32_t rangeStart(std::size_t i) const
    {
        return i == 0 ? 0 : outcomes[i - 1].segment_end;
    }

    /** `o`'s entry of the per-job `column`, 0 when it is empty.
     *  Asserts that `o` is one of this result's outcomes and that a
     *  non-empty column holds its entry. */
    template <typename T>
    T entryOf(const Column<T> &column, const JobOutcome &o) const
    {
        if (column.empty())
            return 0;
        const std::size_t i = indexOf(o);
        GAIA_ASSERT(i < column.size(), "outcome ", i,
                    " has no entry in a per-job column of ",
                    column.size());
        return column[i];
    }
};

/**
 * The first broken rule of `result`'s column shapes, as an error
 * naming it, or OK when it keeps them all:
 *  - `job_evictions` and `arrival_delays` are each empty or hold one
 *    entry per outcome;
 *  - `segment_starts_hi`, `segment_widths`, `segment_options` and
 *    `segment_durations` are each empty or hold one entry per slice,
 *    as `segment_starts` does;
 *  - the outcomes' ranges tile the segment columns in outcome order:
 *    each segment_end is past the previous one, and the last is the
 *    slice count;
 *  - an empty `segment_durations` means every range is exactly one
 *    slice: outcome i's segment_end is i + 1;
 *  - each range is in time order, every slice starting at or after
 *    the end of the one before it (finalize asserts the same);
 *  - every slice an eviction lost ran on spot, since only spot work
 *    is evicted. The lost slices are derived, not stored
 *    (SimulationResult::lostSlices(): every slice of an evicted job
 *    but its last), so this is where a run whose evicted jobs did not
 *    restart as one slice would show.
 * It reads no column out of its bounds, so it is safe on any result
 * whose outcomes all have a job.
 */
Status checkColumns(const SimulationResult &result);

/**
 * Concurrent cores in use by `option` (or all options when
 * `any_option`), sampled every `step` seconds over [0, horizon) —
 * the data behind the paper's demand/allocation plots.
 */
std::vector<double>
allocationSeries(const SimulationResult &result, Seconds step,
                 bool any_option = true,
                 PurchaseOption option = PurchaseOption::OnDemand);

/**
 * Stable 64-bit digest of every field of `result`, including each
 * job outcome, its per-job column entries and its placed segments
 * (doubles hashed by bit pattern, so even sub-printing-precision
 * drift changes the digest). Two runs are bit-identical iff their
 * fingerprints match — the determinism tests compare this across
 * thread counts and repeated runs. `pricing`, `startup_overhead`,
 * `carbon`, `energy` and `faults` are not mixed themselves: they
 * enter through each job's variableCost(), overheadCoreSeconds(),
 * carbonGrams() and length().
 */
std::uint64_t resultFingerprint(const SimulationResult &result);

/** `fingerprint` as 16 lowercase hex digits, the spelling every
 *  printed fingerprint uses. */
std::string fingerprintHex(std::uint64_t fingerprint);

} // namespace gaia

#endif // GAIA_SIM_RESULTS_H
