/**
 * @file
 * Declarative fault-injection configuration.
 *
 * A FaultSpec names every degraded-world knob as plain data: rates
 * and durations of carbon-source faults (outages, stale-forecast
 * windows, trace gaps, spike bursts), cluster-side faults (spot
 * revocation storms, straggler slowdowns, delayed job starts), and
 * the scheduler's degradation ladder (retry budget, backoff, spot
 * re-attempts). Like ScenarioSpec it is cheap to copy and vary, so
 * a resilience sweep is just a vector of scenarios whose fault
 * members differ.
 *
 * Specs parse from a compact clause syntax used by the --fault CLI
 * flag, e.g.
 *
 *     outage:rate=0.05,hours=2;storm:rate=0.1
 *
 * where each clause is `kind:key=value[,key=value...]` and clauses
 * merge left to right. All randomness downstream is a pure hash of
 * (seed, kind, slot-or-job), so equal specs reproduce bit-identical
 * simulations regardless of query order or thread count (see
 * fault/injector.h).
 */

#ifndef GAIA_FAULT_FAULT_SPEC_H
#define GAIA_FAULT_FAULT_SPEC_H

#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/time.h"

namespace gaia {

/** Bound on every window, delay and retry-backoff duration: injector
 *  window scans stay O(slots-per-window) with a small constant, and a
 *  delayed start moves an arrival at most a week. */
constexpr Seconds kMaxFaultDuration = 7 * kSecondsPerDay;

/** Most spot re-attempts a storm-evicted job may make before its
 *  restart falls back to reserved or on-demand capacity. */
constexpr int kMaxStormSpotRetries = 16;

/** All fault-injection knobs for one simulation, as plain data. */
struct FaultSpec
{
    // --- Carbon-source faults (FaultyCarbonSource) ---

    /** Per-hour probability that a source outage window starts. */
    double outage_rate = 0.0;
    /** Length of each outage window. */
    Seconds outage_duration = 2 * kSecondsPerHour;

    /** Per-hour probability that a stale-forecast window starts. */
    double stale_rate = 0.0;
    /** Length of each stale window. */
    Seconds stale_duration = 4 * kSecondsPerHour;

    /** Per-hour probability that a spike burst starts. */
    double spike_rate = 0.0;
    /** Length of each spike burst. */
    Seconds spike_duration = 2 * kSecondsPerHour;
    /** Multiplier applied to future-slot forecasts during a burst. */
    double spike_factor = 3.0;

    /** Per-slot probability that the trace feed misses the slot. */
    double gap_rate = 0.0;

    // --- Cluster-side faults (OnlineScheduler) ---

    /** Per-hour probability of a spot revocation storm. */
    double storm_rate = 0.0;

    /** Per-job probability of a straggler slowdown. */
    double straggler_rate = 0.0;
    /** Runtime multiplier for straggler jobs (finite, >= 1). */
    double straggler_factor = 2.0;

    /** Per-job probability of a delayed start. */
    double delay_rate = 0.0;
    /** Submission-to-arrival delay for affected jobs. */
    Seconds delay_duration = 30 * kSecondsPerMinute;

    // --- Degradation ladder (scheduler response) ---

    /** Retry attempts against an unavailable source before the
     *  scheduler falls back to a carbon-oblivious plan. */
    int cis_max_retries = 3;
    /** First retry backoff; doubles per attempt. */
    Seconds cis_retry_backoff = 5 * kSecondsPerMinute;
    /** Spot re-attempts per job after storm revocations before the
     *  restart falls back to reserved/on-demand capacity. */
    int storm_spot_retries = 3;

    /** Selects the deterministic fault stream. */
    std::uint64_t seed = 1;

    /** Any carbon-source fault configured (decorator needed). */
    bool anyCisFault() const;
    /** Any cluster-side fault configured. */
    bool anyClusterFault() const;
    /** Any fault at all configured (injector needed). */
    bool enabled() const;

    /** Input validation for untrusted (CLI/scenario) specs. */
    Status validate() const;

    /**
     * Canonical content key: equal keys configure identical fault
     * streams. Disabled specs key to "off".
     */
    std::string key() const;

    /**
     * Merge the clause list `text` into this spec (see file
     * comment for the grammar). Unknown kinds/keys and malformed
     * numbers error without modifying the spec's validity
     * guarantees; call validate() afterwards.
     */
    Status merge(const std::string &text);

    /** Parse a clause list into a default-initialized spec. */
    static Result<FaultSpec> parse(const std::string &text);
};

} // namespace gaia

#endif // GAIA_FAULT_FAULT_SPEC_H
