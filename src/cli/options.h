/**
 * @file
 * Command-line options for the gaia_run driver.
 *
 * Mirrors the original artifact's run.py interface (policy
 * selection, waiting-time pair "-w 6x24", cluster configuration,
 * trace selection) while adding CSV input/output paths so real
 * ElectricityMaps dumps and production job traces drop in.
 */

#ifndef GAIA_CLI_OPTIONS_H
#define GAIA_CLI_OPTIONS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "sim/cluster.h"

namespace gaia {

/** Parsed gaia_run configuration. */
struct CliOptions
{
    /** Built-in workload ("alibaba", "azure", "mustang",
     *  "motivating") — ignored when workload_csv is set. */
    std::string workload = "alibaba";
    /** Path to a JobTrace CSV (id, submit, length, cpus). */
    std::string workload_csv;
    /** Jobs to synthesize for built-in workloads. */
    std::size_t jobs = 1000;
    /** Arrival span for built-in workloads (--span-days). */
    Seconds span = 7 * kSecondsPerDay;
    /**
     * Apply the paper's §6.1 pipeline to workload_csv: replicate
     * the source to cover `span`, filter, and sample `jobs`
     * arrivals (requires workload_csv). Off by default: the CSV is
     * replayed as-is.
     */
    bool resample = false;

    /** Built-in region label (e.g. "SA-AU") — ignored when
     *  carbon_csv is set. */
    std::string region = "SA-AU";
    /** Path to a CarbonTrace CSV (hour, carbon_intensity). */
    std::string carbon_csv;

    /** Scheduling policy name (see makePolicy). */
    std::string policy = "Carbon-Time";
    /**
     * Elastic-scaling profile applied to every job ("" or "off" =
     * fixed-width jobs; see parseElasticProfile for the grammar,
     * e.g. "linear:max=4" or "diminishing:max=8,alpha=0.7").
     */
    std::string elastic_profile;
    /** Resource strategy: "on-demand", "hybrid", "res-first",
     *  "spot-first", or "spot-res". */
    std::string strategy = "on-demand";

    /** Reserved cores. */
    int reserved = 0;
    /** Spot per-hour eviction probability. */
    double eviction_rate = 0.0;
    /** Spot length bound (--spot-max-hours). */
    Seconds spot_max_length = 2 * kSecondsPerHour;
    /** Maximum waiting, "SHORTxLONG" hours (artifact's -w 6x24). */
    Seconds short_wait = 6 * kSecondsPerHour;
    Seconds long_wait = 24 * kSecondsPerHour;

    /** CIS forecast noise sigma (0 = perfect forecasts). */
    double forecast_noise = 0.0;
    /** Forecast source: "oracle" (default), "persistence", or
     *  "profile". */
    std::string forecaster = "oracle";
    /** Per-acquisition instance startup overhead
     *  (--startup-overhead-min). */
    Seconds startup_overhead = 0;
    /** Idle reserved power as a fraction of busy power. */
    double idle_power_fraction = 0.0;

    /** RNG seed for trace synthesis and evictions. */
    std::uint64_t seed = 1;

    /**
     * Fault-injection clauses, ';'-joined across repeated --fault
     * flags (e.g. "outage:rate=0.05,hours=2;storm:rate=0.1"); ""
     * disables injection (see FaultSpec::merge).
     */
    std::string fault;
    /** Fault-decision hash seed (independent of --seed). */
    std::uint64_t fault_seed = 1;
    /** Carbon-source retry budget of the degradation ladder. */
    std::uint32_t fault_retries = 3;
    /** First retry backoff, doubling per attempt
     *  (--fault-backoff-min). */
    Seconds fault_backoff = 5 * kSecondsPerMinute;
    /** Post-eviction spot re-attempts under the storm model. */
    std::uint32_t fault_spot_retries = 3;

    /** Output directory for aggregate/details/allocation CSVs. */
    std::string output_dir = "gaia_results";

    /** Metrics-snapshot JSON sink ("" = disabled). */
    std::string metrics_out;
    /** Chrome/Perfetto trace JSON sink ("" = disabled). */
    std::string trace_out;
    /** Print the metrics summary table after the run. */
    bool verbose = false;

    /** Also write the realized workload trace as a JobTrace CSV
     *  ("" = disabled) — the stream a serve client replays. */
    std::string export_workload;
    /** Print `fingerprint <hex>` after the run (the parity oracle
     *  against a drained gaia_serve daemon). */
    bool print_fingerprint = false;

    /** Resolved strategy enum; NotFound on an unknown name. */
    Result<ResourceStrategy> resolvedStrategy() const;
};

/** What a successful option parse asks the driver to do. */
enum class CliAction
{
    Run,          ///< run the simulation
    ShowHelp,     ///< print usage and exit 0
    ListPolicies, ///< print policy names and exit 0
};

/**
 * Parse argv into options. Both `--flag value` and `--flag=value`
 * spellings are accepted. Malformed input (unknown flag, missing
 * or out-of-range value) yields an error Status whose message is
 * ready to print; --help / --list-policies short-circuit to their
 * CliAction without validating the rest.
 */
Result<CliAction> parseCliOptions(const std::vector<std::string> &args,
                                  CliOptions &options);

/** Usage text for --help and error paths. */
std::string cliUsage();

/** The --list-policies output of both drivers: one name per line,
 *  the paper's Table 1 set, then the elastic family. */
std::string policyListing();

/** Parse the artifact-style waiting pair "6x24" (hours). */
Status parseWaitingSpec(const std::string &spec, Seconds &short_wait,
                        Seconds &long_wait);

} // namespace gaia

#endif // GAIA_CLI_OPTIONS_H
