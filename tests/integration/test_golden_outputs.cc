/**
 * @file
 * Golden regression tests: small-config versions of the fig08,
 * fig14, and fig19 sweeps whose CSV-formatted output is diffed
 * byte-for-byte against checked-in golden files.
 *
 * The goldens were generated from the pre-fast-path simulator core,
 * so they pin the exact numeric behaviour of the accounting and
 * policy pipeline: any change that alters a simulated schedule or a
 * printed digit anywhere in these sweeps fails here first. Set
 * GAIA_UPDATE_GOLDENS=1 to regenerate after an *intentional*
 * behaviour change (and explain the diff in the commit).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/sweep.h"
#include "common/executor.h"
#include "common/obs.h"
#include "common/strings.h"
#include "sim/results.h"

namespace gaia {
namespace {

#ifndef GAIA_GOLDEN_DIR
#error "GAIA_GOLDEN_DIR must point at tests/golden"
#endif

std::string
goldenPath(const std::string &name)
{
    return std::string(GAIA_GOLDEN_DIR) + "/" + name;
}

bool
updateRequested()
{
    const char *env = std::getenv("GAIA_UPDATE_GOLDENS");
    return env != nullptr && std::string(env) != "0";
}

/** Compare `actual` to the golden file (or rewrite it on update). */
void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (updateRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (run once with GAIA_UPDATE_GOLDENS=1 to create it)";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "output of " << name << " drifted from the golden file; "
        << "if the change is intentional, regenerate with "
        << "GAIA_UPDATE_GOLDENS=1 and justify the diff";
}

/** One CSV line; fields joined with commas, '\n'-terminated. */
std::string
line(const std::vector<std::string> &fields)
{
    std::string out;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            out += ',';
        out += fields[i];
    }
    out += '\n';
    return out;
}

const SimulationResult &
cellValue(const SweepEngine &sweep, std::size_t index)
{
    const Result<SimulationResult> &cell = sweep.result(index);
    EXPECT_TRUE(cell.isOk()) << cell.status().toString();
    return cell.value();
}

/**
 * fig08 at golden scale: the week-long 1k-job Alibaba-PAI trace,
 * all six policies, on-demand only — same formatting as the bench's
 * CSV mirror.
 */
std::string
buildFig08Csv()
{
    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);

    const std::vector<std::string> policies = {
        "NoWait",      "Lowest-Slot", "Lowest-Window",
        "Carbon-Time", "Ecovisor",    "Wait-Awhile"};

    SweepEngine sweep;
    for (const std::string &name : policies) {
        ScenarioSpec spec = base;
        spec.policy = name;
        spec.label = name;
        sweep.add(std::move(spec));
    }
    sweep.run();

    std::vector<MetricsRow> rows;
    for (std::size_t i = 0; i < policies.size(); ++i)
        rows.push_back(
            metricsOf(policies[i], cellValue(sweep, i)));
    const auto normalized = normalizedToMax(rows);

    std::string csv = line({"policy", "norm_carbon", "norm_wait",
                            "carbon_kg", "wait_hours"});
    for (std::size_t i = 0; i < policies.size(); ++i) {
        csv += line({policies[i], fmt(normalized[i].carbon_kg, 4),
                     fmt(normalized[i].wait_hours, 4),
                     fmt(rows[i].carbon_kg, 4),
                     fmt(rows[i].wait_hours, 4)});
    }
    return csv;
}

TEST(GoldenOutputs, Fig08PolicyComparison)
{
    checkGolden("fig08_small.csv", buildFig08Csv());
}

/**
 * fig14 at golden scale: savings-per-waiting-hour for Lowest-Window
 * and Carbon-Time across (W_short, W_long) points, week-long trace.
 */
std::string
buildFig14Csv()
{
    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);

    struct Point
    {
        Seconds w_short;
        Seconds w_long;
    };
    const std::vector<Point> points = {{hours(1), hours(24)},
                                       {hours(6), hours(24)},
                                       {hours(24), hours(24)},
                                       {hours(6), hours(6)},
                                       {hours(6), hours(48)}};
    const std::vector<std::string> policies = {"Lowest-Window",
                                               "Carbon-Time"};

    SweepEngine sweep;
    ScenarioSpec nowait_spec = base;
    nowait_spec.policy = "NoWait";
    const std::size_t nowait_cell = sweep.add(nowait_spec);

    std::vector<std::size_t> cells;
    for (const Point &point : points) {
        for (const std::string &policy : policies) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.short_wait = point.w_short;
            spec.long_wait = point.w_long;
            spec.label = policy;
            cells.push_back(sweep.add(std::move(spec)));
        }
    }
    sweep.run();
    const SimulationResult &nowait = cellValue(sweep, nowait_cell);

    std::string csv = line({"w_short_h", "w_long_h", "policy",
                            "saved_per_wait_h", "saved_kg",
                            "wait_h"});
    std::size_t k = 0;
    for (const Point &point : points) {
        for (const std::string &policy : policies) {
            const SimulationResult &r =
                cellValue(sweep, cells[k++]);
            const double saved = nowait.carbon_kg - r.carbon_kg;
            const double wait = r.meanWaitingHours();
            const double ratio = wait > 0.0 ? saved / wait : 0.0;
            csv += line({fmt(toHours(point.w_short), 1),
                         fmt(toHours(point.w_long), 1), policy,
                         fmt(ratio, 4), fmt(saved, 4),
                         fmt(wait, 4)});
        }
    }
    return csv;
}

TEST(GoldenOutputs, Fig14WaitingSweep)
{
    checkGolden("fig14_small.csv", buildFig14Csv());
}

/**
 * fig19 at golden scale: Spot-RES-Carbon-Time across reserved
 * capacities and spot bounds with 10%/h evictions, on a small
 * Azure-VM trace — exercises the reserved pool, spot evictions,
 * restart accounting, and the seeded RNG.
 */
std::string
buildFig19Csv()
{
    TraceBuildOptions options;
    options.job_count = 600;
    options.span = kSecondsPerWeek;
    options.seed = 1;

    ScenarioSpec base;
    base.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);

    const std::vector<Seconds> bounds = {0, hours(2), hours(6)};
    const std::vector<int> reserved = {0, 4, 8};

    SweepEngine sweep;
    ScenarioSpec nowait_spec = base;
    nowait_spec.policy = "NoWait";
    const std::size_t nowait_cell = sweep.add(nowait_spec);

    std::vector<std::size_t> cells;
    for (Seconds bound : bounds) {
        for (int cores : reserved) {
            ScenarioSpec spec = base;
            spec.policy = "Carbon-Time";
            spec.strategy = ResourceStrategy::SpotReserved;
            spec.cluster.reserved_cores = cores;
            spec.cluster.spot_eviction_rate = 0.10;
            spec.cluster.spot_max_length = bound;
            cells.push_back(sweep.add(std::move(spec)));
        }
    }
    sweep.run();
    const SimulationResult &baseline =
        cellValue(sweep, nowait_cell);

    std::string csv = line(
        {"reserved", "jmax_hours", "norm_cost", "norm_carbon"});
    std::size_t k = 0;
    for (Seconds bound : bounds) {
        for (int cores : reserved) {
            const SimulationResult &r =
                cellValue(sweep, cells[k++]);
            csv += line({std::to_string(cores),
                         fmt(toHours(bound), 0),
                         fmt(r.totalCost() / baseline.totalCost(),
                             4),
                         fmt(r.carbon_kg / baseline.carbon_kg,
                             4)});
        }
    }
    return csv;
}

TEST(GoldenOutputs, Fig19HybridSweep)
{
    checkGolden("fig19_small.csv", buildFig19Csv());
}

/**
 * ext_elastic_scaling at golden scale: the elastic profile family
 * across fixed-width and elastic policies, week-long trace — same
 * formatting as the bench's CSV mirror, fingerprint column
 * included so any sub-printing-precision drift fails the pin.
 */
std::string
buildExtElasticCsv()
{
    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);

    const std::vector<std::string> profiles = {
        "off", "linear:max=4", "diminishing:max=4,alpha=0.6"};
    const std::vector<std::string> policies = {
        "NoWait", "Wait-Awhile", "Elastic-NoWait",
        "Carbon-Scaler"};

    SweepEngine sweep;
    std::vector<std::size_t> cells;
    for (const std::string &profile : profiles) {
        for (const std::string &policy : policies) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.elastic_profile = profile;
            spec.label = policy + " profile=" + profile;
            cells.push_back(sweep.add(std::move(spec)));
        }
    }
    sweep.run();
    const SimulationResult &nowait = cellValue(sweep, cells[0]);

    std::string csv = line({"profile", "policy", "carbon_kg",
                            "norm_carbon", "mean_wait_h",
                            "mean_completion_h", "cost",
                            "fingerprint"});
    std::size_t k = 0;
    for (const std::string &profile : profiles) {
        for (const std::string &policy : policies) {
            const SimulationResult &r =
                cellValue(sweep, cells[k++]);
            csv += line({profile, policy, fmt(r.carbon_kg, 6),
                         fmt(r.carbon_kg / nowait.carbon_kg, 4),
                         fmt(r.meanWaitingHours(), 4),
                         fmt(r.meanCompletionHours(), 4),
                         fmt(r.totalCost(), 4),
                         std::to_string(resultFingerprint(r))});
        }
    }
    return csv;
}

TEST(GoldenOutputs, ExtElasticScaling)
{
    checkGolden("ext_elastic_small.csv", buildExtElasticCsv());
}

/**
 * ext_provisioning_mix at golden scale: Carbon-Scaler over the
 * strategy x reserved grid on a small Azure-VM trace — exercises
 * elastic width through the reserved pool, spot admission,
 * eviction restarts at gang width, and the seeded RNG.
 */
std::string
buildExtProvisioningCsv()
{
    TraceBuildOptions options;
    options.job_count = 600;
    options.span = kSecondsPerWeek;
    options.seed = 1;

    ScenarioSpec base;
    base.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    base.policy = "Carbon-Scaler";
    base.elastic_profile = "diminishing:max=4,alpha=0.6";

    struct StrategyAxis
    {
        ResourceStrategy strategy;
        std::string name;
    };
    const std::vector<StrategyAxis> strategies = {
        {ResourceStrategy::ReservedFirst, "RES-First"},
        {ResourceStrategy::SpotFirst, "Spot-First"},
        {ResourceStrategy::SpotReserved, "Spot-RES"},
    };
    const std::vector<int> reserved = {0, 4, 8};

    SweepEngine sweep;
    ScenarioSpec nowait_spec = base;
    nowait_spec.policy = "NoWait";
    nowait_spec.elastic_profile = "off";
    const std::size_t nowait_cell = sweep.add(nowait_spec);

    std::vector<std::size_t> cells;
    for (const StrategyAxis &axis : strategies) {
        for (int cores : reserved) {
            ScenarioSpec spec = base;
            spec.strategy = axis.strategy;
            spec.cluster.reserved_cores = cores;
            spec.cluster.spot_eviction_rate = 0.05;
            spec.cluster.spot_max_length = hours(2);
            spec.label =
                axis.name + " R=" + std::to_string(cores);
            cells.push_back(sweep.add(std::move(spec)));
        }
    }
    sweep.run();
    const SimulationResult &baseline =
        cellValue(sweep, nowait_cell);

    std::string csv = line({"strategy", "reserved", "norm_cost",
                            "norm_carbon", "mean_wait_h",
                            "evictions", "fingerprint"});
    std::size_t k = 0;
    for (const StrategyAxis &axis : strategies) {
        for (int cores : reserved) {
            const SimulationResult &r =
                cellValue(sweep, cells[k++]);
            csv += line(
                {axis.name, std::to_string(cores),
                 fmt(r.totalCost() / baseline.totalCost(), 4),
                 fmt(r.carbon_kg / baseline.carbon_kg, 4),
                 fmt(r.meanWaitingHours(), 4),
                 std::to_string(r.eviction_count),
                 std::to_string(resultFingerprint(r))});
        }
    }
    return csv;
}

TEST(GoldenOutputs, ExtProvisioningMix)
{
    checkGolden("ext_provisioning_small.csv",
                buildExtProvisioningCsv());
}

/**
 * Fault runs at golden scale: small Azure spot+reserved cells under
 * delayed starts, carbon-source outages that run the retry ladder
 * (the longest one the spec accepts included) and then degrade,
 * stragglers and storms, plus one elastic gang under the serve
 * smoke's fault mix. Delays and retries move a job's admitted
 * arrival away from its submit time, and its no-wait carbon is
 * computed there; stragglers and week-long delays run reserved work
 * past the horizon, where it no longer counts toward utilization.
 */
std::string
buildFaultCsv()
{
    TraceBuildOptions options;
    options.job_count = 300;
    options.span = 3 * kSecondsPerDay;
    options.seed = 1;

    ScenarioSpec base;
    base.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    base.strategy = ResourceStrategy::SpotReserved;
    base.cluster.spot_eviction_rate = 0.10;

    struct Cell
    {
        std::string label;
        std::string policy;
        std::string fault;
        int retries = 3;
        Seconds backoff = minutes(5);
        std::string elastic_profile = "";
        int reserved = 4;
        int spot_retries = 3;
    };
    const std::vector<Cell> cells = {
        {.label = "delay",
         .policy = "Carbon-Time",
         .fault = "delay:rate=0.3,minutes=90"},
        {.label = "delay-week",
         .policy = "Carbon-Time",
         .fault = "delay:rate=0.2,minutes=10080"},
        {.label = "outage",
         .policy = "Carbon-Time",
         .fault = "outage:rate=0.2,hours=2"},
        {.label = "outage",
         .policy = "Wait-Awhile",
         .fault = "outage:rate=0.2,hours=2",
         .retries = 5,
         .backoff = minutes(10)},
        {.label = "longest-ladder",
         .policy = "Carbon-Time",
         .fault = "outage:rate=1,hours=168",
         .retries = 16,
         .backoff = minutes(802)},
        {.label = "straggler",
         .policy = "Carbon-Time",
         .fault = "straggler:rate=0.3,factor=20"},
        {.label = "storm", .policy = "Ecovisor", .fault = "storm:rate=0.1"},
        {.label = "serve-smoke-mix",
         .policy = "Carbon-Scaler",
         .fault = "straggler:rate=0.3,factor=1.5;delay:rate=0.2,"
                  "minutes=20;storm:rate=0.05",
         .elastic_profile = "linear:max=4",
         .reserved = 8},
        // A storm every hour and the most spot re-attempts the spec
        // accepts: a spot job longer than an hour is evicted 17 times.
        {.label = "storm-max-retries",
         .policy = "Ecovisor",
         .fault = "storm:rate=1",
         .reserved = 8,
         .spot_retries = 16},
    };

    SweepEngine sweep;
    for (const Cell &cell : cells) {
        ScenarioSpec spec = base;
        spec.label = cell.label;
        spec.policy = cell.policy;
        Result<FaultSpec> fault = FaultSpec::parse(cell.fault);
        EXPECT_TRUE(fault.isOk()) << fault.status().toString();
        spec.fault = fault.value();
        spec.fault.cis_max_retries = cell.retries;
        spec.fault.cis_retry_backoff = cell.backoff;
        spec.fault.storm_spot_retries = cell.spot_retries;
        spec.elastic_profile = cell.elastic_profile;
        spec.cluster.reserved_cores = cell.reserved;
        sweep.add(std::move(spec));
    }
    sweep.run();

    std::string csv = line({"cell", "policy", "carbon_kg",
                            "carbon_nowait_kg", "reserved_utilization",
                            "evictions", "fingerprint"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SimulationResult &r = cellValue(sweep, i);
        csv += line({cells[i].label, cells[i].policy,
                     fmt(r.carbon_kg, 6), fmt(r.carbon_nowait_kg, 6),
                     fmt(r.reserved_utilization, 4),
                     std::to_string(r.eviction_count),
                     fingerprintHex(resultFingerprint(r))});
    }
    return csv;
}

TEST(GoldenOutputs, FaultRuns)
{
    checkGolden("fault_small.csv", buildFaultCsv());
}

/**
 * The elastic goldens embed result fingerprints, so this pins
 * bitwise determinism end to end: one worker thread must reproduce
 * the parallel bytes — schedules (and their fingerprints) may not
 * depend on the thread count. test_plan_memo checks the same cells'
 * memoized plans against direct planning job by job.
 */
TEST(GoldenOutputs, ElasticCsvsStableAcrossThreads)
{
    setParallelThreads(1);
    const std::string elastic = buildExtElasticCsv();
    const std::string provisioning = buildExtProvisioningCsv();
    setParallelThreads(0); // back to the default resolution

    checkGolden("ext_elastic_small.csv", elastic);
    checkGolden("ext_provisioning_small.csv", provisioning);
}

/**
 * The observability layer must be bitwise-transparent: re-running
 * the three golden sweeps with tracing, detailed timing, and a
 * deliberately tiny trace ring (to exercise wrap-around) produces
 * the same CSV bytes as the uninstrumented runs pinned above.
 */
TEST(GoldenOutputs, InstrumentationLeavesCsvsByteIdentical)
{
    obs::setTraceRingCapacity(64);
    obs::setTracingEnabled(true);
    obs::setDetailedTiming(true);

    const std::string fig08 = buildFig08Csv();
    const std::string fig14 = buildFig14Csv();
    const std::string fig19 = buildFig19Csv();

    obs::setTracingEnabled(false);
    obs::setDetailedTiming(false);
    obs::setTraceRingCapacity(32768);

    checkGolden("fig08_small.csv", fig08);
    checkGolden("fig14_small.csv", fig14);
    checkGolden("fig19_small.csv", fig19);
}

} // namespace
} // namespace gaia
