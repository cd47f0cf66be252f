/**
 * @file
 * Brute-force reference implementations shared by the differential
 * test suites.
 *
 * Each production fast path in this repo is pinned to a naive loop
 * that re-derives the same answer the slow way: the carbon-trace
 * prefix/RMQ tables (test_cis_fastpath, test_plan_cache), every
 * carbon source's window queries (test_cis_fastpath), the
 * Wait-Awhile greedy (test_policy_optimality), the suspend-resume
 * policies' plans (test_policy_properties), and the elastic
 * CarbonScaler allocator (test_elastic_oracle). The loops live here
 * so every suite tests against the *same* reference arithmetic —
 * bitwise agreement between two suites then means agreement with a
 * single shared oracle, not two coincidentally-similar ones.
 *
 * Everything is header-only and inline; helpers that assert use
 * gtest's EXPECT so a broken reference fails the calling test.
 */

#ifndef GAIA_TESTS_COMMON_REFERENCE_ORACLES_H
#define GAIA_TESTS_COMMON_REFERENCE_ORACLES_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"
#include "core/cis.h"
#include "core/elastic.h"
#include "trace/carbon_trace.h"

namespace gaia {

/**
 * Reference integral with the fast path's rounding discipline: the
 * same per-segment products and the same summation structure —
 * partial segments plus one full-hour block collapsed to a double —
 * except the block is summed by looping over the hours instead of
 * differencing the precomputed prefix table. Bitwise agreement then
 * pins the table (and its indexing) exactly.
 */
inline double
refIntegrate(const CarbonTrace &trace, Seconds from, Seconds to)
{
    if (from == to)
        return 0.0;
    const std::vector<double> &v = trace.values();
    CompensatedSum total;
    Seconds cursor = from;
    if (cursor < 0) {
        const Seconds seg_end = std::min<Seconds>(kSecondsPerHour, to);
        total.add(v.front() * static_cast<double>(seg_end - cursor));
        cursor = seg_end;
    }
    const Seconds end_of_trace = trace.duration();
    if (cursor < to && cursor < end_of_trace) {
        const Seconds stop = std::min(to, end_of_trace);
        const SlotIndex slot = slotOf(cursor);
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        if (slot_end >= stop) {
            total.add(v[static_cast<std::size_t>(slot)] *
                      static_cast<double>(stop - cursor));
            cursor = stop;
        } else {
            if (cursor != slotStart(slot)) {
                total.add(v[static_cast<std::size_t>(slot)] *
                          static_cast<double>(slot_end - cursor));
                cursor = slot_end;
            }
            const auto full_begin =
                static_cast<std::size_t>(slotOf(cursor));
            const auto full_end =
                static_cast<std::size_t>(slotOf(stop));
            if (full_end > full_begin) {
                // The looped stand-in for the prefix difference.
                CompensatedSum block;
                for (std::size_t s = full_begin; s < full_end; ++s)
                    block.add(v[s] * 3600.0);
                total.add(block.round());
                cursor = static_cast<Seconds>(full_end) *
                         kSecondsPerHour;
            }
            if (cursor < stop) {
                total.add(v[full_end] *
                          static_cast<double>(stop - cursor));
                cursor = stop;
            }
        }
    }
    while (cursor < to) {
        const Seconds slot_end =
            slotStart(slotOf(cursor)) + kSecondsPerHour;
        const Seconds segment_end = std::min(slot_end, to);
        total.add(v.back() *
                  static_cast<double>(segment_end - cursor));
        cursor = segment_end;
    }
    return total.round();
}

/** Plain-double version of the replaced loop (old rounding). */
inline double
naiveIntegrate(const CarbonTrace &trace, Seconds from, Seconds to)
{
    double total = 0.0;
    Seconds cursor = from;
    while (cursor < to) {
        const SlotIndex slot = slotOf(std::max<Seconds>(cursor, 0));
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        const Seconds segment_end = std::min(slot_end, to);
        total += trace.atSlot(slot) *
                 static_cast<double>(segment_end - cursor);
        cursor = segment_end;
    }
    return total;
}

/** Reference argmin: the first-win linear scan the RMQ replaced. */
inline SlotIndex
refMinSlot(const CarbonTrace &trace, Seconds from, Seconds to)
{
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    SlotIndex best = first;
    double best_value = trace.atSlot(first);
    for (SlotIndex s = first + 1; s <= last; ++s) {
        const double v = trace.atSlot(s);
        if (v < best_value) {
            best_value = v;
            best = s;
        }
    }
    return best;
}

/** The three window queries of one source over one window. */
struct WindowAnswers
{
    double integral = 0.0;
    SlotIndex min_slot = 0;
    double percentile = 0.0;
};

/**
 * Reference window queries over any carbon source: one
 * forecastAtSlot() read per hourly slot of the non-empty window
 * [from, to) as seen at `now`, the integral summed slice by slice in
 * time order (a window starting before t=0 charges that stretch at
 * slot 0), the argmin first-win, the percentile through
 * common/stats.h. A source without an exact shortcut must answer
 * bit for bit the same.
 */
inline WindowAnswers
refWindowAnswers(const CarbonInfoSource &source, Seconds now,
                 Seconds from, Seconds to, double p)
{
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    WindowAnswers ref;
    ref.min_slot = first;
    std::vector<double> values;
    for (SlotIndex s = first; s <= last; ++s) {
        const double v = source.forecastAtSlot(now, s);
        const Seconds lo = s == first ? from : slotStart(s);
        const Seconds hi = std::min(slotStart(s) + kSecondsPerHour, to);
        ref.integral += v * static_cast<double>(hi - lo);
        if (s > first && v < values[static_cast<std::size_t>(
                                 ref.min_slot - first)])
            ref.min_slot = s;
        values.push_back(v);
    }
    ref.percentile = percentile(std::move(values), p);
    return ref;
}

/**
 * Random trace mixing smooth values with quantized flat runs — the
 * region models clamp to a floor, so real traces contain long runs
 * of exactly-equal values whose ties the fast paths must preserve.
 */
inline CarbonTrace
randomTrace(Rng &rng, std::size_t slots)
{
    std::vector<double> values;
    values.reserve(slots);
    while (values.size() < slots) {
        if (rng.bernoulli(0.3)) {
            // Flat run at a quantized level (exact-tie material).
            const double level =
                25.0 * static_cast<double>(rng.uniformInt(1, 12));
            const std::int64_t run = rng.uniformInt(1, 8);
            for (std::int64_t i = 0;
                 i < run && values.size() < slots; ++i)
                values.push_back(level);
        } else {
            values.push_back(rng.uniform(10.0, 700.0));
        }
    }
    return CarbonTrace("prop", std::move(values));
}

/** Smooth random trace (no ties) for brute-force comparisons. */
inline CarbonTrace
randomTrace(std::uint64_t seed, std::size_t slots = 48)
{
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        values.push_back(rng.uniform(10.0, 800.0));
    return CarbonTrace("rand", std::move(values));
}

/** Random window, biased to also cover the clamp regions. */
inline std::pair<Seconds, Seconds>
randomWindow(Rng &rng, const CarbonTrace &trace)
{
    const Seconds lo = -2 * kSecondsPerHour;
    const Seconds hi = trace.duration() + 6 * kSecondsPerHour;
    Seconds a = rng.uniformInt(lo, hi);
    Seconds b = rng.uniformInt(lo, hi);
    if (a > b)
        std::swap(a, b);
    return {a, b};
}

/**
 * Brute-force reference for Wait-Awhile: minimize total carbon of
 * J seconds of execution within [t, t+J+W] by greedily buying the
 * cheapest seconds — since the cost of each second is independent,
 * the continuous relaxation's optimum equals picking the cheapest
 * per-second prices, evaluated here by scanning hour slices.
 */
inline double
cheapestExecutionCost(const CarbonTrace &trace, Seconds now,
                      Seconds length, Seconds wait)
{
    const Seconds deadline = now + length + wait;
    struct Slice
    {
        double price;
        Seconds available;
    };
    std::vector<Slice> slices;
    for (SlotIndex s = slotOf(now); slotStart(s) < deadline; ++s) {
        const Seconds from = std::max(now, slotStart(s));
        const Seconds to =
            std::min(deadline, slotStart(s) + kSecondsPerHour);
        if (to > from)
            slices.push_back({trace.atSlot(s), to - from});
    }
    std::sort(slices.begin(), slices.end(),
              [](const Slice &a, const Slice &b) {
                  return a.price < b.price;
              });
    double cost = 0.0;
    Seconds remaining = length;
    for (const Slice &slice : slices) {
        if (remaining <= 0)
            break;
        const Seconds take = std::min(remaining, slice.available);
        cost += slice.price * static_cast<double>(take);
        remaining -= take;
    }
    EXPECT_EQ(remaining, 0);
    return cost;
}

/**
 * Sort segments by start and coalesce abutting ones of equal width:
 * how the reference plans below are assembled, where the policies
 * append in time order instead.
 */
inline std::vector<RunSegment>
refMergeSegments(std::vector<RunSegment> segments)
{
    std::sort(segments.begin(), segments.end(),
              [](const RunSegment &a, const RunSegment &b) {
                  return a.start < b.start;
              });
    std::vector<RunSegment> merged;
    for (const RunSegment &s : segments) {
        if (!merged.empty() && s.start <= merged.back().end &&
            s.width == merged.back().width) {
            EXPECT_GE(s.start, merged.back().end);
            merged.back().end = std::max(merged.back().end, s.end);
        } else {
            merged.push_back(s);
        }
    }
    return merged;
}

/**
 * Reference Wait-Awhile plan: one forecastAtSlot() per hourly slot
 * window of [submit, submit + length + max_wait), every window
 * sorted by (intensity, start), the cheapest taken first (the
 * earliest part of the last one), then merged.
 */
inline std::vector<RunSegment>
refWaitAwhile(const CarbonInfoSource &cis, const Job &job,
              Seconds max_wait)
{
    const Seconds now = job.submit;
    const Seconds deadline = now + job.length + max_wait;
    struct Window
    {
        Seconds from;
        Seconds to;
        double ci;
    };
    std::vector<Window> windows;
    for (SlotIndex s = slotOf(now); slotStart(s) < deadline; ++s) {
        const Seconds from = std::max(now, slotStart(s));
        const Seconds to =
            std::min(deadline, slotStart(s) + kSecondsPerHour);
        if (to > from)
            windows.push_back({from, to, cis.forecastAtSlot(now, s)});
    }
    std::sort(windows.begin(), windows.end(),
              [](const Window &a, const Window &b) {
                  if (a.ci != b.ci)
                      return a.ci < b.ci;
                  return a.from < b.from;
              });
    std::vector<RunSegment> segments;
    Seconds remaining = job.length;
    for (const Window &w : windows) {
        if (remaining <= 0)
            break;
        const Seconds take = std::min(remaining, w.to - w.from);
        segments.push_back({w.from, w.from + take});
        remaining -= take;
    }
    EXPECT_EQ(remaining, 0);
    return refMergeSegments(std::move(segments));
}

/**
 * Reference Ecovisor plan: run through each slot whose forecast is at
 * or below the `percentile` of the next 24 h (fixed at submit), pause
 * through the others, and run to completion once `max_wait` of
 * pause is spent.
 */
inline std::vector<RunSegment>
refEcovisor(const CarbonInfoSource &cis, const Job &job,
            Seconds max_wait, double percentile = 30.0)
{
    const Seconds now = job.submit;
    const double threshold = cis.forecastPercentile(
        now, now, now + kSecondsPerDay, percentile);
    std::vector<RunSegment> segments;
    Seconds cursor = now;
    Seconds wait_left = max_wait;
    Seconds remaining = job.length;
    while (remaining > 0) {
        if (wait_left <= 0) {
            segments.push_back({cursor, cursor + remaining});
            remaining = 0;
            break;
        }
        const Seconds slot_end = slotStart(slotOf(cursor)) +
                                 kSecondsPerHour;
        if (cis.forecastAtSlot(now, slotOf(cursor)) <= threshold) {
            const Seconds run_to =
                std::min(slot_end, cursor + remaining);
            segments.push_back({cursor, run_to});
            remaining -= run_to - cursor;
            cursor = run_to;
        } else {
            const Seconds pause =
                std::min(slot_end - cursor, wait_left);
            cursor += pause;
            wait_left -= pause;
        }
    }
    return refMergeSegments(std::move(segments));
}

/**
 * Reference Adaptive-SR plan: Ecovisor's walk, but each slot's
 * threshold percentile eases quadratically from
 * `initial_percentile` to 100 as the pause spent approaches
 * `max_wait`.
 */
inline std::vector<RunSegment>
refAdaptiveSR(const CarbonInfoSource &cis, const Job &job,
              Seconds max_wait, double initial_percentile = 30.0)
{
    const Seconds now = job.submit;
    const Seconds budget = max_wait;
    std::vector<RunSegment> segments;
    Seconds cursor = now;
    Seconds waited = 0;
    Seconds remaining = job.length;
    while (remaining > 0) {
        if (waited >= budget) {
            segments.push_back({cursor, cursor + remaining});
            break;
        }
        const double progress =
            budget > 0 ? static_cast<double>(waited) /
                             static_cast<double>(budget)
                       : 1.0;
        const double p =
            initial_percentile +
            (100.0 - initial_percentile) * progress * progress;
        const double threshold = cis.forecastPercentile(
            now, now, now + kSecondsPerDay, p);
        const Seconds slot_end =
            slotStart(slotOf(cursor)) + kSecondsPerHour;
        if (cis.forecastAtSlot(now, slotOf(cursor)) <= threshold) {
            const Seconds run_to =
                std::min(slot_end, cursor + remaining);
            segments.push_back({cursor, run_to});
            remaining -= run_to - cursor;
            cursor = run_to;
        } else {
            const Seconds pause =
                std::min(slot_end - cursor, budget - waited);
            cursor += pause;
            waited += pause;
        }
    }
    return refMergeSegments(std::move(segments));
}

/**
 * Flat-sort knapsack reference for the CarbonScaler greedy: list
 * every (slot, step) chunk, sort globally by (cost-per-work ratio,
 * slot, step), and consume in that order with the exact arithmetic
 * of planElasticGreedy (full capacity, or the final ceil-trimmed
 * partial chunk).
 *
 * On concave profiles the greedy's eligibility order coincides with
 * this global sort: within a slot, concavity makes ratios
 * non-decreasing in the step index, so the sort never reaches a
 * marginal chunk before its slot's lower steps; and a chunk the
 * greedy's eligibility rule hides is always preceded (in ratio) by
 * an eligible chunk of the same slot. Identical consumption order
 * plus identical per-chunk arithmetic makes the two allocations
 * bitwise equal — which test_elastic_oracle asserts.
 */
inline ElasticAllocation
planElasticFlatSort(const ElasticWindow &window, Seconds length)
{
    struct Chunk
    {
        double ratio;
        int slot;
        int step;
    };
    std::vector<Chunk> chunks;
    chunks.reserve(
        static_cast<std::size_t>(window.slotCount()) *
        static_cast<std::size_t>(window.stepCount()));
    for (int s = 0; s < window.slotCount(); ++s)
        for (int k = 0; k < window.stepCount(); ++k)
            chunks.push_back({window.ratio(s, k), s, k});
    std::sort(chunks.begin(), chunks.end(),
              [](const Chunk &a, const Chunk &b) {
                  if (a.ratio != b.ratio)
                      return a.ratio < b.ratio;
                  if (a.slot != b.slot)
                      return a.slot < b.slot;
                  return a.step < b.step;
              });

    ElasticAllocation alloc(window.slotCount(), window.stepCount());
    double remaining = static_cast<double>(length);
    for (const Chunk &c : chunks) {
        if (remaining <= 0.0)
            break;
        const Seconds capacity =
            window.slots[static_cast<std::size_t>(c.slot)]
                .capacity();
        const double rate =
            window.step_rate[static_cast<std::size_t>(c.step)];
        Seconds take = capacity;
        const double need = remaining / rate;
        if (need < static_cast<double>(capacity)) {
            take = static_cast<Seconds>(std::ceil(need));
            if (take < 1)
                take = 1;
        }
        alloc.at(c.slot, c.step) = take;
        remaining -= static_cast<double>(take) * rate;
    }
    EXPECT_LE(remaining, 0.0);
    return alloc;
}

} // namespace gaia

#endif // GAIA_TESTS_COMMON_REFERENCE_ORACLES_H
