/**
 * @file
 * Memoization of the start-time policies' slot-invariant boundary
 * work.
 *
 * Arrivals are uniform *within* an hour (workload/generators.cc), so
 * whole plans cannot be keyed by arrival slot — a job arriving at
 * slot offset 17s and one at 3599s start "now" at different
 * instants. What *is* shared is everything the start-time policies
 * compute about the hourly boundary candidates: every candidate
 * b = nextSlotBoundary(now+1) + k·3600 lies in a slot strictly after
 * slotOf(now), where the CIS answers are independent of the exact
 * `now` (the measured-truth branch of forecastAtSlot only fires for
 * slots at or before slotOf(now); oracle noise is a pure per-slot
 * hash). The dominant cost, one forecast integral per candidate,
 * therefore need not be paid again by every job in a slot.
 *
 * The cache is one slot table per window length: entry b holds
 * `compute_slot(b)` for the hourly boundary b — the forecast
 * integral over [b, b+length) for the start-time policies, or one
 * slot's intensity in the one-slot table under a negative sentinel
 * length. Boundary keys from consecutive arrival slots overlap in all
 * but one slot, and the table computes each slot once per
 * simulation, so fill work is linear in the trace length rather than
 * trace x window. A lookup is a view of the key's candidates, read in
 * place:
 *  - Lowest-Window and Carbon-Time each run their one selection loop
 *    over it; Carbon-Time's ratio divides by the exact `s - now`, so
 *    only the integrals are shareable.
 *  - SlotForecasts (core/policy.h) reads the one-slot table for the
 *    slots after the arrival slot, on behalf of the four
 *    suspend-resume policies: Wait-Awhile, Ecovisor, Adaptive-SR and
 *    Carbon-Scaler.
 *
 * Two preconditions make a table entry the same for every reader:
 *  - A key spans only slots strictly after its caller's arrival
 *    slot. The arrival slot itself reads measured truth, which a
 *    later arrival would see as a forecast.
 *  - Lookups arrive in time order, as they do within one simulation.
 *    A table extends from its current end, so a key may also fill
 *    slots before its first candidate; those entries may sit at or
 *    before the filler's arrival slot, and only a reader from an
 *    earlier slot could see them.
 *
 * Replayed values are then bitwise identical to direct evaluation by
 * construction — same functions, same arguments (up to a `now` the
 * result provably does not depend on) — which test_plan_memo checks
 * job by job against direct planning, and the golden CSV tests pin
 * end to end. The engine always hands its policy the cache; policies
 * bypass it whenever the invariants do not hold: sub-hourly candidate
 * granularity, or a source whose forecasts depend on the query
 * instant (slotInvariantForecasts()).
 *
 * One instance serves one single-threaded simulation.
 */

#ifndef GAIA_CORE_PLAN_CACHE_H
#define GAIA_CORE_PLAN_CACHE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/obs.h"
#include "common/time.h"

namespace gaia {

/** Per-simulation slot tables of slot-invariant planning values. */
class PlanCache
{
  public:
    /**
     * Identifies one boundary-candidate computation: the first
     * hourly boundary candidate, the candidate count, and the
     * window length the integrals span. (first, count) encode the
     * arrival slot and the queue's max-wait; `length` is J_avg, or
     * a negative sentinel for a table of one-slot values.
     */
    struct BoundaryKey
    {
        Seconds first = 0;
        std::int64_t count = 0;
        Seconds length = 0;
    };

    PlanCache() = default;
    /** Takes over the tables and counters; `other` is left empty,
     *  so only one of the two flushes the counters. */
    PlanCache(PlanCache &&other);
    PlanCache &operator=(PlanCache &&) = delete;

    /**
     * Flushes this instance's totals into the process-wide metrics
     * registry (plan_cache.hits / .misses counters; one
     * plan_cache.fill_seconds sample when detailed timing ran), so
     * per-cell caches aggregate into one sweep-wide view.
     */
    ~PlanCache();

    /**
     * A view of the values at the key's boundary candidates
     * b_k = key.first + k·3600 for k < key.count (which must be
     * positive); the value at b is `compute_slot(Seconds b) ->
     * double`. The length's slot table is extended (one compute_slot
     * call per new slot) to cover the key; the view stays valid
     * until the next lookup.
     */
    template <typename ComputeSlot>
    std::span<const double> startIntegrals(const BoundaryKey &key,
                                           ComputeSlot &&compute_slot)
    {
        std::vector<double> &table = slot_tables_[key.length];
        const auto base =
            static_cast<std::size_t>(key.first / kSecondsPerHour);
        const std::size_t end =
            base + static_cast<std::size_t>(key.count);
        if (table.size() >= end) {
            ++hits_;
        } else {
            ++misses_;
            // Fill timing is clock-heavy relative to the fill loop,
            // so it only runs when a metrics/trace sink asked for it.
            const bool timed = obs::detailedTimingEnabled();
            const auto fill_start =
                timed ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
            while (table.size() < end) {
                const Seconds b =
                    static_cast<Seconds>(table.size()) *
                    kSecondsPerHour;
                table.push_back(compute_slot(b));
            }
            if (timed)
                fill_seconds_ +=
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() -
                        fill_start)
                        .count();
        }
        return {table.data() + base,
                static_cast<std::size_t>(key.count)};
    }

    /** Lookups whose key the tables already covered. */
    std::uint64_t hits() const { return hits_; }
    /** Lookups that had to extend a slot table. */
    std::uint64_t misses() const { return misses_; }

  private:
    /** length -> value per slot boundary b (see startIntegrals). */
    std::unordered_map<Seconds, std::vector<double>> slot_tables_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    /** Total fill wall time; accumulated only while
     *  obs::detailedTimingEnabled(). */
    double fill_seconds_ = 0.0;
};

} // namespace gaia

#endif // GAIA_CORE_PLAN_CACHE_H
