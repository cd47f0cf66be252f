/**
 * @file
 * Memoized against direct planning, job by job, on full scenarios.
 *
 * The engine always hands its policy the PlanCache. Each policy
 * decides for itself when a key's slot tables are valid for a job
 * and plans directly when they are not (sub-hourly candidates,
 * forecast models, fault decorators). DirectPlanCheck wraps the
 * scenario's policy, returns the memoized plan the engine asked for,
 * and plans the same job again with no cache. Any job whose two plans
 * differ is a memoization defect, whether or not it moves a figure.
 *
 * The grids are the cells whose memoized tables carry the most
 * weight: fig14's 84 h windows on the year-long Alibaba trace, the
 * forecast-noise ablation (whose noisy oracle stays slot-invariant,
 * so the one-slot table serves the suspend-resume policies), and the
 * cells behind the elastic and provisioning goldens.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/parallel.h"
#include "analysis/scenario.h"
#include "common/obs.h"
#include "common/strings.h"
#include "core/policy.h"
#include "sim/simulator.h"

namespace gaia {
namespace {

/**
 * Test-only policy decorator: forwards the inner policy's name and
 * capability flags, returns its plan for the context it is given,
 * and counts the jobs whose plan without a cache differs in any
 * segment's start, end or width. One instance serves one
 * single-threaded simulation.
 */
class DirectPlanCheck : public SchedulingPolicy
{
  public:
    explicit DirectPlanCheck(const SchedulingPolicy &inner)
        : inner_(inner)
    {
    }

    std::string name() const override { return inner_.name(); }
    LengthKnowledge lengthKnowledge() const override
    {
        return inner_.lengthKnowledge();
    }
    bool carbonAware() const override { return inner_.carbonAware(); }
    bool performanceAware() const override
    {
        return inner_.performanceAware();
    }
    bool suspendResume() const override
    {
        return inner_.suspendResume();
    }
    bool elastic() const override { return inner_.elastic(); }

    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override
    {
        ++plans_;
        if (ctx.cache == nullptr)
            ++uncached_;
        SchedulePlan memoized = inner_.plan(job, ctx);
        PlanContext direct = ctx;
        direct.cache = nullptr;
        if (!samePlan(memoized, inner_.plan(job, direct)))
            ++mismatches_;
        return memoized;
    }

    std::uint64_t plans() const { return plans_; }
    std::uint64_t mismatches() const { return mismatches_; }
    std::uint64_t uncached() const { return uncached_; }

  private:
    static bool samePlan(const SchedulePlan &a, const SchedulePlan &b)
    {
        if (a.segmentCount() != b.segmentCount())
            return false;
        for (std::size_t i = 0; i < a.segmentCount(); ++i) {
            const RunSegment &x = a.segment(i);
            const RunSegment &y = b.segment(i);
            if (x.start != y.start || x.end != y.end ||
                x.width != y.width)
                return false;
        }
        return true;
    }

    const SchedulingPolicy &inner_;
    mutable std::uint64_t plans_ = 0;
    mutable std::uint64_t mismatches_ = 0;
    mutable std::uint64_t uncached_ = 0;
};

/**
 * Run every cell under DirectPlanCheck, in parallel, and return one
 * message per cell that failed: a setup or run error, a job whose
 * plans differ, or a plan call that arrived without a cache.
 */
std::vector<std::string>
checkCells(const std::vector<ScenarioSpec> &specs)
{
    AssetCache assets;
    std::vector<std::string> failures(specs.size());
    parallelFor(specs.size(), [&](std::size_t i) {
        const ScenarioSpec &spec = specs[i];
        Result<RealizedScenario> realized =
            realizeScenario(spec, assets);
        if (!realized.isOk()) {
            failures[i] = realized.status().toString();
            return;
        }
        Result<SimulationSetup> setup = realized->setup();
        if (!setup.isOk()) {
            failures[i] = setup.status().toString();
            return;
        }
        const DirectPlanCheck check(*setup->policy);
        setup->policy = &check;
        const Result<SimulationResult> run = simulateChecked(*setup);
        if (!run.isOk())
            failures[i] = run.status().toString();
        else if (check.mismatches() > 0 || check.uncached() > 0)
            failures[i] = std::to_string(check.mismatches()) + " of " +
                          std::to_string(check.plans()) +
                          " plans differ from direct planning, " +
                          std::to_string(check.uncached()) +
                          " calls had no cache";
    });
    std::vector<std::string> messages;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!failures[i].empty())
            messages.push_back(specs[i].label + ": " + failures[i]);
    }
    return messages;
}

/** Check `specs` and that their runs replayed the slot tables. */
void
expectMemoMatchesDirect(const std::vector<ScenarioSpec> &specs)
{
    obs::Counter &hits = obs::counter("plan_cache.hits");
    const std::uint64_t hits_before = hits.value();
    for (const std::string &message : checkCells(specs))
        ADD_FAILURE() << message;
    EXPECT_GT(hits.value(), hits_before);
}

/** fig14_waiting_sweep's 26 policy cells: the year-long Alibaba
 *  trace with short waits to 24 h and long waits to 84 h. */
TEST(PlanMemo, Fig14WaitingSweepCells)
{
    ScenarioSpec base;
    base.workload = WorkloadSpec::year(WorkloadSource::AlibabaPai, 1);
    base.carbon = CarbonSpec::forRegion(
        Region::SouthAustralia,
        static_cast<std::size_t>(kHoursPerYear) + 24 * 8, 1);

    std::vector<std::pair<Seconds, Seconds>> waits;
    for (Seconds w : {hours(1), hours(3), hours(6), hours(12),
                      hours(18), hours(24)})
        waits.emplace_back(w, hours(24));
    for (Seconds w : {hours(6), hours(12), hours(24), hours(36),
                      hours(48), hours(72), hours(84)})
        waits.emplace_back(hours(6), w);

    std::vector<ScenarioSpec> specs;
    for (const auto &[short_wait, long_wait] : waits) {
        for (const char *policy : {"Lowest-Window", "Carbon-Time"}) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.short_wait = short_wait;
            spec.long_wait = long_wait;
            spec.label = std::string(policy) + " w=" +
                         fmt(toHours(short_wait), 0) + "x" +
                         fmt(toHours(long_wait), 0);
            specs.push_back(std::move(spec));
        }
    }
    ASSERT_EQ(specs.size(), 26u);
    expectMemoMatchesDirect(specs);
}

/** ablation_forecast_noise's grid, plus Ecovisor and Carbon-Scaler
 *  at each σ: the noisy forecasts stay slot-invariant, so the
 *  one-slot table serves their suspend-resume walks. */
TEST(PlanMemo, ForecastNoiseCells)
{
    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon =
        CarbonSpec::forRegion(Region::SouthAustralia, 24 * 13, 1);
    base.cis.seed = 1234;

    std::vector<ScenarioSpec> specs;
    for (double noise : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0}) {
        for (const char *policy :
             {"Lowest-Window", "Carbon-Time", "Wait-Awhile",
              "Ecovisor", "Carbon-Scaler"}) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.cis.noise = noise;
            if (spec.policy == "Carbon-Scaler")
                spec.elastic_profile = "linear:max=4";
            spec.label = std::string(policy) +
                         " sigma=" + fmt(noise, 2);
            specs.push_back(std::move(spec));
        }
    }
    expectMemoMatchesDirect(specs);
}

/** The cells behind ext_elastic_small.csv and
 *  ext_provisioning_small.csv (test_golden_outputs). */
TEST(PlanMemo, ElasticGoldenCells)
{
    ScenarioSpec elastic;
    elastic.workload = WorkloadSpec::week(1);
    elastic.carbon =
        CarbonSpec::forRegion(Region::SouthAustralia, 24 * 13, 1);

    std::vector<ScenarioSpec> specs;
    for (const char *profile :
         {"off", "linear:max=4", "diminishing:max=4,alpha=0.6"}) {
        for (const char *policy : {"NoWait", "Wait-Awhile",
                                   "Elastic-NoWait", "Carbon-Scaler"}) {
            ScenarioSpec spec = elastic;
            spec.policy = policy;
            spec.elastic_profile = profile;
            spec.label = std::string(policy) + " profile=" + profile;
            specs.push_back(std::move(spec));
        }
    }

    TraceBuildOptions options;
    options.job_count = 600;
    options.span = kSecondsPerWeek;
    options.seed = 1;
    ScenarioSpec provisioning;
    provisioning.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    provisioning.carbon =
        CarbonSpec::forRegion(Region::SouthAustralia, 24 * 13, 1);
    provisioning.policy = "Carbon-Scaler";
    provisioning.elastic_profile = "diminishing:max=4,alpha=0.6";

    ScenarioSpec nowait = provisioning;
    nowait.policy = "NoWait";
    nowait.elastic_profile = "off";
    nowait.label = "provisioning NoWait";
    specs.push_back(nowait);
    for (ResourceStrategy strategy :
         {ResourceStrategy::ReservedFirst, ResourceStrategy::SpotFirst,
          ResourceStrategy::SpotReserved}) {
        for (int cores : {0, 4, 8}) {
            ScenarioSpec spec = provisioning;
            spec.strategy = strategy;
            spec.cluster.reserved_cores = cores;
            spec.cluster.spot_eviction_rate = 0.05;
            spec.cluster.spot_max_length = hours(2);
            spec.label = "provisioning " + strategyName(strategy) +
                         " R=" + std::to_string(cores);
            specs.push_back(std::move(spec));
        }
    }
    expectMemoMatchesDirect(specs);
}

} // namespace
} // namespace gaia
