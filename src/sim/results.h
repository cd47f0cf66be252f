/**
 * @file
 * Simulation outputs: per-job outcomes and cluster-level aggregates.
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

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/purchase.h"
#include "common/small_vector.h"
#include "common/time.h"
#include "workload/job.h"

namespace gaia {

/** One executed (or lost) slice of a job on a purchase option. */
struct PlacedSegment
{
    Seconds start = 0;
    Seconds end = 0;
    PurchaseOption option = PurchaseOption::OnDemand;
    /** True for spot work destroyed by an eviction. */
    bool lost = false;
    /** Concurrent instances during the slice; 1 for every
     *  fixed-width job, above 1 only for elastic plans. */
    int width = 1;

    Seconds duration() const { return end - start; }
};

/**
 * Everything recorded about one job's execution.
 *
 * The placed segments are the only record of when a job ran:
 * start(), finish() and lostCoreSeconds() derive from them rather
 * than being stored beside them. A sweep holds one of these per job
 * per cell, so the layout is packed (tests/sim/test_layout_budget.cc
 * pins the byte budget): the two ints share one 8-byte word, and
 * PlacedSegment is 24 bytes.
 */
struct JobOutcome
{
    JobId id = 0;
    Seconds submit = 0;
    Seconds length = 0;
    int cpus = 1;
    /** Spot evictions suffered. */
    int evictions = 0;

    /** Placements, including lost spot slices; chronological once
     *  the scheduler has finalized the run. Two segments stay
     *  inline: an uninterrupted run, or one lost spot slice plus
     *  the restart — so recording placements allocates only for
     *  suspend-resume schedules. */
    SmallVector<PlacedSegment, 2> segments;

    /** Attributed emissions, grams CO2eq (includes lost work). */
    double carbon_g = 0.0;
    /** Counterfactual emissions of starting at submit. */
    double carbon_nowait_g = 0.0;
    /** Pay-as-you-go dollars (on-demand + spot, incl. lost work). */
    double variable_cost = 0.0;
    /** Core-seconds of instance start/stop overhead attributed. */
    double overhead_core_seconds = 0.0;

    /** First instant any segment ran (the first segment's start);
     *  0 without segments. */
    Seconds start() const
    {
        return segments.empty() ? 0 : segments.front().start;
    }
    /** Instant the last successful segment completed (lost slices
     *  ignored); 0 without one. */
    Seconds finish() const;
    /** Core-seconds destroyed by evictions: the lost segments'
     *  duration x cpus x width, summed in segment order. */
    double lostCoreSeconds() const;

    /** Completion time: finish − submit. */
    Seconds completion() const { return finish() - submit; }
    /** Waiting (non-running) time: completion − useful run time.
     *  Negative for elastic jobs that finish faster than their
     *  single-instance length — a speedup, reported as-is. */
    Seconds waiting() const { return completion() - length; }
    /** Emissions saved versus running immediately. */
    double carbonSaved() const { return carbon_nowait_g - carbon_g; }
};

/** Cluster-level aggregates for one simulation run. */
struct SimulationResult
{
    std::string policy;
    std::string strategy;
    std::string region;
    std::string workload;

    std::vector<JobOutcome> outcomes;

    int reserved_cores = 0;
    Seconds horizon = 0;

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

    /** Reserved-pool utilization over the horizon, [0, 1]. */
    double reserved_utilization = 0.0;
    std::size_t eviction_count = 0;

    /** Total dollars: upfront reservation + variable usage. */
    double totalCost() const
    {
        return reserved_upfront + on_demand_cost + spot_cost;
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
};

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
 * job outcome and placed segment (doubles hashed by bit pattern, so
 * even sub-printing-precision drift changes the digest). Two runs
 * are bit-identical iff their fingerprints match — the determinism
 * tests compare this across thread counts and repeated runs.
 */
std::uint64_t resultFingerprint(const SimulationResult &result);

} // namespace gaia

#endif // GAIA_SIM_RESULTS_H
