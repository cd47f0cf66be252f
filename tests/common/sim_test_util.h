/**
 * @file
 * Shared test helpers for simulation results.
 *
 * oneQueue(), flatTrace() and fallingTrace() build the queue and the
 * carbon traces the simulator suites run on. runSim() fills a
 * SimulationSetup from parts, runs it with simulateChecked(), and
 * dies with the Status message on an invalid setup, which in a test
 * is a bug in the test. appendOutcome() and setCarbon() build
 * results by hand; checkColumns() (sim/results.h) checks the shape
 * of their columns as of any finalized result's, and heldColumns()
 * names the columns a result holds.
 */

#ifndef GAIA_TESTS_COMMON_SIM_TEST_UTIL_H
#define GAIA_TESTS_COMMON_SIM_TEST_UTIL_H

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/column.h"
#include "common/logging.h"
#include "common/time.h"
#include "core/queues.h"
#include "fault/injector.h"
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
 * Append `seg` to a hand-built `result`'s segment columns as a slice
 * of job `job` of its job column, the way the engine records one:
 * the start always, and each other field only once a column holds
 * it, which the first slice its default does not give creates,
 * filled with the default before it. A duration is the default while
 * slice k is job k's and lasts its as-run length under
 * `result.faults`, so set those before appending.
 */
inline void
appendSlice(SimulationResult &result, std::size_t job,
            const PlacedSegment &seg)
{
    const std::size_t k = result.segment_starts.size();
    const auto append = [k](auto &column, auto value, auto fallback) {
        if (column.empty()) {
            if (value == fallback)
                return;
            column.assign(k, fallback);
        }
        column.push_back(value);
    };
    append(result.segment_starts_hi,
           static_cast<std::uint16_t>(seg.start() >> 32),
           std::uint16_t{0});
    append(result.segment_widths, seg.width, std::uint8_t{1});
    append(result.segment_options, seg.option, PurchaseOption::OnDemand);
    const auto as_run = [&result](std::size_t j) {
        return asRunLength((*result.jobs)[j], &result.faults);
    };
    if (!result.segment_durations.empty() || job != k ||
        seg.duration() != as_run(job)) {
        if (result.segment_durations.empty()) {
            for (std::size_t j = 0; j < k; ++j)
                result.segment_durations.push_back(
                    static_cast<std::uint32_t>(as_run(j)));
        }
        result.segment_durations.push_back(
            static_cast<std::uint32_t>(seg.duration()));
    }
    result.segment_starts.push_back(
        static_cast<std::uint32_t>(seg.start()));
}

/**
 * Append `job` to a hand-built `result`'s job column (a copy: the
 * column is shared) and an outcome to its outcomes, with `segments`
 * as its placements at the end of the segment columns
 * (appendSlice()), `evictions` as its entry of the eviction column
 * and `arrival_delay` as its entry of the arrival-delay column
 * (setLastEntry()). Returns the appended outcome (valid until the
 * next append).
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
    const std::size_t index = result.outcomes.size();
    for (const PlacedSegment &seg : segments)
        appendSlice(result, index, seg);
    JobOutcome &outcome = result.outcomes.emplace_back();
    outcome.segment_end =
        static_cast<std::uint32_t>(result.segment_starts.size());
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

/** A result's held columns: each one's name and length. */
using HeldColumns = std::vector<std::pair<std::string, std::size_t>>;

/** The per-job and per-slice columns `result` holds, by name and
 *  length in declaration order, leaving out every empty one. */
inline HeldColumns
heldColumns(const SimulationResult &result)
{
    HeldColumns held;
    for (const auto &[name, size] :
         {std::pair{"outcomes", result.outcomes.size()},
          std::pair{"segment_starts", result.segment_starts.size()},
          std::pair{"segment_starts_hi", result.segment_starts_hi.size()},
          std::pair{"segment_widths", result.segment_widths.size()},
          std::pair{"segment_options", result.segment_options.size()},
          std::pair{"segment_durations", result.segment_durations.size()},
          std::pair{"job_evictions", result.job_evictions.size()},
          std::pair{"arrival_delays", result.arrival_delays.size()}}) {
        if (size != 0)
            held.emplace_back(name, size);
    }
    return held;
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
