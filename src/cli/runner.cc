#include "cli/runner.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

#include "analysis/sweep.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/strings.h"
#include "trace/region_model.h"
#include "workload/generators.h"

namespace gaia {

namespace {

Status
fillWorkloadSpec(const CliOptions &options, ScenarioSpec &spec)
{
    if (!options.workload_csv.empty()) {
        spec.workload = WorkloadSpec::fromCsv(options.workload_csv,
                                              options.resample);
        // Only read when resampling (§6.1 pipeline parameters).
        spec.workload.options.job_count = options.jobs;
        spec.workload.options.span = options.span;
        spec.workload.options.seed = options.seed;
        return Status::ok();
    }

    if (options.workload == "motivating") {
        spec.workload =
            WorkloadSpec::motivating(options.span, options.seed);
        return Status::ok();
    }

    TraceBuildOptions build;
    build.job_count = options.jobs;
    build.span = options.span;
    build.seed = options.seed;
    if (options.workload == "alibaba") {
        spec.workload =
            WorkloadSpec::builtin(WorkloadSource::AlibabaPai, build);
    } else if (options.workload == "azure") {
        spec.workload =
            WorkloadSpec::builtin(WorkloadSource::AzureVm, build);
    } else if (options.workload == "mustang") {
        spec.workload =
            WorkloadSpec::builtin(WorkloadSource::MustangHpc, build);
    } else {
        return Status::notFound(
            "unknown workload '", options.workload,
            "'; expected alibaba, azure, mustang, or motivating");
    }
    return Status::ok();
}

Status
fillCarbonSpec(const CliOptions &options, ScenarioSpec &spec)
{
    if (!options.carbon_csv.empty()) {
        spec.carbon = CarbonSpec::fromCsv(options.carbon_csv);
        return Status::ok();
    }
    GAIA_TRY_ASSIGN(const Region region,
                    regionFromName(options.region));
    // slots = 0: derived from the workload's busy horizon at run
    // time (carbonSlotsFor), matching the historical behavior.
    spec.carbon = CarbonSpec::forRegion(region, 0, options.seed);
    return Status::ok();
}

} // namespace

Result<ScenarioSpec>
scenarioFromOptions(const CliOptions &options)
{
    ScenarioSpec spec;
    GAIA_TRY(fillWorkloadSpec(options, spec));
    GAIA_TRY(fillCarbonSpec(options, spec));

    spec.policy = options.policy;
    spec.elastic_profile = options.elastic_profile;
    spec.short_wait = options.short_wait;
    spec.long_wait = options.long_wait;

    spec.cluster.reserved_cores = options.reserved;
    spec.cluster.spot_eviction_rate = options.eviction_rate;
    spec.cluster.spot_max_length = options.spot_max_length;
    spec.cluster.startup_overhead = options.startup_overhead;
    spec.cluster.reserved_idle_power_fraction =
        options.idle_power_fraction;
    spec.cluster.seed = options.seed;

    GAIA_TRY_ASSIGN(spec.strategy, options.resolvedStrategy());
    if (spec.strategy == ResourceStrategy::OnDemandOnly &&
        options.reserved > 0) {
        inform("reserved cores with on-demand strategy: switching "
               "to the hybrid strategy");
        spec.strategy = ResourceStrategy::HybridGreedy;
    }

    spec.cis.forecaster = options.forecaster;
    spec.cis.noise = options.forecast_noise;
    spec.cis.seed = options.seed;

    GAIA_TRY(spec.fault.merge(options.fault));
    spec.fault.seed = options.fault_seed;
    spec.fault.cis_max_retries =
        static_cast<int>(options.fault_retries);
    spec.fault.cis_retry_backoff = options.fault_backoff;
    spec.fault.storm_spot_retries =
        static_cast<int>(options.fault_spot_retries);
    GAIA_TRY(spec.fault.validate());

    spec.label = options.policy + "/" + options.workload;
    return spec;
}

Result<RunArtifacts>
writeRunArtifacts(const SimulationResult &result,
                  const std::string &output_dir)
{
    std::error_code error;
    std::filesystem::create_directories(output_dir, error);
    if (error)
        return Status::invalidArgument("cannot create output directory ",
                                       output_dir, ": ", error.message());
    RunArtifacts artifacts;
    artifacts.aggregate_csv = output_dir + "/aggregate.csv";
    artifacts.details_csv = output_dir + "/details.csv";
    artifacts.allocation_csv = output_dir + "/allocation.csv";

    {
        GAIA_TRY_ASSIGN(
            CsvWriter aggregate,
            CsvWriter::open(
                artifacts.aggregate_csv,
                {"policy", "strategy", "region", "workload", "jobs",
                 "carbon_kg", "carbon_nowait_kg", "total_cost",
                 "reserved_upfront", "on_demand_cost", "spot_cost",
                 "energy_kwh", "mean_wait_h", "p95_wait_h",
                 "mean_completion_h", "reserved_cores",
                 "reserved_utilization", "evictions"}));
        aggregate.writeRow(
            {result.policy, result.strategy, result.region,
             result.workload, std::to_string(result.outcomes.size()),
             fmt(result.carbon_kg, 6),
             fmt(result.carbon_nowait_kg, 6),
             fmt(result.totalCost(), 6),
             fmt(result.reserved_upfront, 6),
             fmt(result.on_demand_cost, 6),
             fmt(result.spot_cost, 6), fmt(result.energy_kwh, 6),
             fmt(result.meanWaitingHours(), 4),
             fmt(result.p95WaitingHours(), 4),
             fmt(result.meanCompletionHours(), 4),
             std::to_string(result.reserved_cores),
             fmt(result.reserved_utilization, 4),
             std::to_string(result.eviction_count)});
    }

    {
        GAIA_TRY_ASSIGN(
            CsvWriter details,
            CsvWriter::open(
                artifacts.details_csv,
                {"id", "submit", "length", "cpus", "start", "finish",
                 "wait_s", "carbon_g", "carbon_nowait_g",
                 "variable_cost", "evictions", "lost_core_seconds"}));
        for (const JobOutcome &o : result.outcomes) {
            const Job &job = result.job(o);
            details.writeRow(
                {std::to_string(job.id), std::to_string(job.submit),
                 std::to_string(result.length(o)),
                 std::to_string(job.cpus),
                 std::to_string(result.start(o)),
                 std::to_string(result.finish(o)),
                 std::to_string(result.waiting(o)),
                 fmt(result.carbonGrams(o), 6),
                 fmt(result.carbonNowaitGrams(o), 6),
                 fmt(result.variableCost(o), 6),
                 std::to_string(result.evictions(o)),
                 fmt(result.lostCoreSeconds(o), 1)});
        }
    }

    {
        const auto reserved = allocationSeries(
            result, kSecondsPerHour, false,
            PurchaseOption::Reserved);
        const auto on_demand = allocationSeries(
            result, kSecondsPerHour, false,
            PurchaseOption::OnDemand);
        const auto spot = allocationSeries(
            result, kSecondsPerHour, false, PurchaseOption::Spot);
        GAIA_TRY_ASSIGN(
            CsvWriter allocation,
            CsvWriter::open(artifacts.allocation_csv,
                            {"hour", "reserved", "on_demand", "spot"}));
        const std::size_t slots = std::max(
            {reserved.size(), on_demand.size(), spot.size()});
        const auto at = [](const std::vector<double> &v,
                           std::size_t i) {
            return i < v.size() ? v[i] : 0.0;
        };
        for (std::size_t h = 0; h < slots; ++h) {
            allocation.writeRow({std::to_string(h),
                                 fmt(at(reserved, h), 3),
                                 fmt(at(on_demand, h), 3),
                                 fmt(at(spot, h), 3)});
        }
    }
    return artifacts;
}

Result<SimulationResult>
runFromOptions(const CliOptions &options, RunArtifacts *artifacts)
{
    GAIA_TRY_ASSIGN(const ScenarioSpec spec,
                    scenarioFromOptions(options));
    // A one-cell sweep rather than a direct runScenario() call, so
    // the observability layer sees the same sweep.run / sweep.cell
    // spans and sweep.* metrics a multi-cell sweep produces. The
    // cell runs inline on this thread.
    SweepEngine sweep;
    sweep.add(spec);
    if (!options.export_workload.empty()) {
        // Export the exact stream a serve client would replay: the
        // realized (synthesized/loaded/resampled) trace the cell then
        // reuses from the sweep's cache.
        GAIA_TRY_ASSIGN(const std::shared_ptr<const JobTrace> trace,
                        sweep.cache().trace(spec.workload));
        GAIA_TRY(trace->toCsv(options.export_workload));
    }
    sweep.run();
    GAIA_TRY_ASSIGN(SimulationResult result, sweep.result(0));
    GAIA_TRY_ASSIGN(const RunArtifacts files,
                    writeRunArtifacts(result, options.output_dir));
    if (artifacts != nullptr)
        *artifacts = files;
    return result;
}

} // namespace gaia
