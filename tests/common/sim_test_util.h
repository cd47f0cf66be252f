/**
 * @file
 * Shared test helpers for simulation results.
 *
 * oneQueue(), flatTrace() and fallingTrace() build the queue and the
 * carbon traces the simulator suites run on. runSim() fills a
 * SimulationSetup from parts, runs it with simulateChecked(), and
 * dies with the Status message on an invalid setup, which in a test
 * is a bug in the test. appendOutcome() and setCarbon() build
 * results by hand, and segmentColumnViolation() checks a finalized
 * result's segment and per-job columns.
 */

#ifndef GAIA_TESTS_COMMON_SIM_TEST_UTIL_H
#define GAIA_TESTS_COMMON_SIM_TEST_UTIL_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/column.h"
#include "common/logging.h"
#include "common/time.h"
#include "core/queues.h"
#include "sim/results.h"
#include "sim/simulator.h"
#include "trace/carbon_trace.h"

namespace gaia::testutil {

/** One three-day-horizon queue named "only" that waits at most
 *  `max_wait` for jobs averaging `avg`. */
inline QueueConfig
oneQueue(Seconds max_wait = hours(6), Seconds avg = kSecondsPerHour)
{
    return QueueConfig({{"only", 3 * kSecondsPerDay, max_wait, avg}});
}

/** Flat intensity `value` over `slots` hours (40 days by default,
 *  long enough for every scenario of the simulator suites). */
inline CarbonTrace
flatTrace(double value = 100.0, std::size_t slots = 24 * 40)
{
    return CarbonTrace("flat", std::vector<double>(slots, value));
}

/** Decreasing intensity over 40 days: waiting always lowers carbon,
 *  so a carbon-aware policy visibly diverges from NoWait. */
inline CarbonTrace
fallingTrace()
{
    std::vector<double> values(24 * 40);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 1000.0 - static_cast<double>(i);
    return CarbonTrace("falling", std::move(values));
}

/**
 * Give the last of `outcomes` outcomes `value` in a per-job `column`
 * the way the engine fills one: a column stays empty while every
 * entry is 0, and grows, zero-filled, to every outcome before it
 * takes an entry.
 */
template <typename T>
void
setLastEntry(Column<T> &column, std::size_t outcomes, Seconds value)
{
    if (value == 0 && column.empty())
        return;
    column.resize(outcomes);
    column.back() = static_cast<T>(value);
}

/**
 * Append `job` to a hand-built `result`'s job column (a copy: the
 * column is shared) and an outcome to its outcomes, with `segments`
 * as its placements at the end of the segment column, `evictions` as
 * its entry of the eviction column and `arrival_delay` as its entry
 * of the arrival-delay column (setLastEntry()). Returns the appended
 * outcome (valid until the next append).
 */
inline JobOutcome &
appendOutcome(SimulationResult &result, const Job &job, int evictions,
              Seconds arrival_delay,
              std::initializer_list<PlacedSegment> segments)
{
    auto jobs = result.jobs == nullptr
                    ? std::make_shared<std::vector<Job>>()
                    : std::make_shared<std::vector<Job>>(*result.jobs);
    jobs->push_back(job);
    result.jobs = std::move(jobs);
    result.segments.insert(result.segments.end(), segments);
    JobOutcome &outcome = result.outcomes.emplace_back();
    outcome.segment_end =
        static_cast<std::uint32_t>(result.segments.size());
    setLastEntry(result.job_evictions, result.outcomes.size(),
                 evictions);
    setLastEntry(result.arrival_delays, result.outcomes.size(),
                 arrival_delay);
    return outcome;
}

/**
 * Give a hand-built `result` the carbon trace and power model its
 * jobs' carbon and no-wait carbon derive from
 * (SimulationResult::carbonGrams(), carbonNowaitGrams()): `hourly`
 * intensities from t = 0, at `watts_per_core`.
 */
inline void
setCarbon(SimulationResult &result, std::vector<double> hourly,
          double watts_per_core = EnergyModel{}.watts_per_core)
{
    result.carbon = CarbonTrace("test", std::move(hourly));
    result.energy.watts_per_core = watts_per_core;
}

/**
 * The first broken invariant of a finalized `result`'s segment
 * column and per-job columns, or "" when it holds them all:
 *  - the eviction and arrival-delay columns are each empty or hold
 *    one entry per outcome;
 *  - the outcomes' ranges tile `segments` in outcome order: each
 *    segment_end is past the previous one, and the last is the
 *    column's size;
 *  - each range is in time order, every slice starting at or after
 *    the end of the one before it (finalize asserts the same);
 *  - every slice an eviction lost ran on spot, since only spot work
 *    is evicted. The lost slices are derived, not stored
 *    (SimulationResult::lostSlices(): every slice of an evicted job
 *    but its last), so this is where a run whose evicted jobs did not
 *    restart as one slice would show.
 */
inline std::string
segmentColumnViolation(const SimulationResult &result)
{
    for (const auto &[name, size] :
         {std::pair{"job_evictions", result.job_evictions.size()},
          std::pair{"arrival_delays", result.arrival_delays.size()}}) {
        if (size != 0 && size != result.outcomes.size())
            return std::string(name) + " holds " + std::to_string(size) +
                   " entries for " +
                   std::to_string(result.outcomes.size()) + " outcomes";
    }
    std::size_t next = 0;
    for (const JobOutcome &o : result.outcomes) {
        const std::string job =
            "job " + std::to_string(result.job(o).id) + ": ";
        if (o.segment_end <= next ||
            o.segment_end > result.segments.size())
            return job + "range ends at " +
                   std::to_string(o.segment_end) +
                   ", not past its start " + std::to_string(next) +
                   " and within the column";
        next = o.segment_end;
        const std::span<const PlacedSegment> segs =
            result.placements(o);
        for (std::size_t k = 1; k < segs.size(); ++k) {
            if (segs[k].start() < segs[k - 1].end())
                return job + "slice starts before the previous one "
                             "ends";
        }
        for (const PlacedSegment &seg : segs.first(result.lostSlices(o))) {
            if (seg.option != PurchaseOption::Spot)
                return job + "lost a slice that did not run on spot";
        }
    }
    if (next != result.segments.size())
        return "segments past the last job's range";
    return "";
}

inline SimulationResult
runSim(const JobTrace &trace, const SchedulingPolicy &policy,
       const QueueConfig &queues, const CarbonInfoSource &cis,
       const ClusterConfig &cluster = {},
       ResourceStrategy strategy = ResourceStrategy::OnDemandOnly)
{
    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = &policy;
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster = cluster;
    setup.strategy = strategy;
    Result<SimulationResult> result = simulateChecked(setup);
    GAIA_ASSERT(result.isOk(), "test simulation failed: ",
                result.status().message());
    return std::move(result).value();
}

} // namespace gaia::testutil

#endif // GAIA_TESTS_COMMON_SIM_TEST_UTIL_H
