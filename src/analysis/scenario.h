/**
 * @file
 * Declarative simulation scenarios and the content-keyed asset
 * cache behind parameter sweeps.
 *
 * A ScenarioSpec names everything one simulation cell needs —
 * workload, carbon region, queue limits, policy, resource strategy,
 * cluster configuration, and CIS/forecast settings — as plain data.
 * Specs are cheap to copy and vary, so a sweep is just a vector of
 * them (see analysis/sweep.h).
 *
 * Expensive derived assets (job traces, carbon traces, queue
 * calibrations) are built through an AssetCache keyed on the spec's
 * content: two cells that share a workload spec share one JobTrace
 * build and one J_avg calibration, even when the sweep runs its cells
 * in parallel.
 * Errors are cached too, so a malformed CSV is parsed (and
 * reported) once per sweep rather than once per cell.
 */

#ifndef GAIA_ANALYSIS_SCENARIO_H
#define GAIA_ANALYSIS_SCENARIO_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/policy.h"
#include "core/queues.h"
#include "fault/fault_spec.h"
#include "sim/cluster.h"
#include "sim/results.h"
#include "sim/simulator.h"
#include "trace/carbon_trace.h"
#include "trace/region_model.h"
#include "workload/generators.h"
#include "workload/job.h"

namespace gaia {

class CarbonForecaster;
class CarbonInfoService;
class FaultInjector;
class FaultyCarbonSource;

/** Declarative workload description (what trace to build/load). */
struct WorkloadSpec
{
    enum class Kind
    {
        Builtin,    ///< synthesize from a WorkloadSource model
        Motivating, ///< the Section 3 motivating workload
        Csv,        ///< load (and optionally resample) a CSV trace
    };

    Kind kind = Kind::Builtin;

    /** Builtin: distribution model to sample from. */
    WorkloadSource source = WorkloadSource::AlibabaPai;
    /**
     * Builtin: synthesis options. For Csv with resample, job_count,
     * span, and seed parameterize the §6.1 pipeline. For
     * Motivating, only span (the arrival span) and seed are read.
     */
    TraceBuildOptions options;

    /** Csv: path to a JobTrace CSV (id, submit, length, cpus). */
    std::string csv_path;
    /** Csv: apply the paper's §6.1 resampling pipeline. */
    bool resample = false;

    /** The paper's year-long 100k-job trace for `source`. */
    static WorkloadSpec year(WorkloadSource source,
                             std::uint64_t seed = 1);
    /** The paper's week-long 1k-job Alibaba-PAI trace. */
    static WorkloadSpec week(std::uint64_t seed = 1);
    /** The Section 3 motivating workload. */
    static WorkloadSpec motivating(Seconds span = 3 * kSecondsPerDay,
                                   std::uint64_t seed = 1);
    /** Synthesize from `source` with explicit options. */
    static WorkloadSpec builtin(WorkloadSource source,
                                const TraceBuildOptions &options);
    /** Load a CSV trace, optionally resampled via §6.1. */
    static WorkloadSpec fromCsv(std::string path,
                                bool resample = false);

    /** Content key: equal keys produce identical traces. */
    std::string key() const;

    /** Build or load the trace this spec describes. */
    Result<JobTrace> realize() const;
};

/** Declarative carbon-intensity source. */
struct CarbonSpec
{
    enum class Kind
    {
        RegionModel, ///< synthesize from a calibrated region model
        Csv,         ///< load a CarbonTrace CSV
    };

    Kind kind = Kind::RegionModel;

    /** RegionModel: grid to model. */
    Region region = Region::SouthAustralia;
    /**
     * RegionModel: hourly slot count; 0 derives it from the
     * workload's busy horizon plus scheduling slack at run time
     * (see carbonSlotsFor).
     */
    std::size_t slots = 0;
    /** RegionModel: RNG seed. */
    std::uint64_t seed = 1;

    /** Csv: path to a CarbonTrace CSV (hour, carbon_intensity); the
     *  trace's region label is the path. */
    std::string csv_path;

    /** Synthesize `region` from day 0 of the year (slots = 0
     *  derives from the workload). */
    static CarbonSpec forRegion(Region region, std::size_t slots = 0,
                                std::uint64_t seed = 1);
    /** Load a CSV dump. */
    static CarbonSpec fromCsv(std::string path);

    /** Content key for `resolved_slots` hourly slots. */
    std::string key(std::size_t resolved_slots) const;

    /** Build or load the trace with `resolved_slots` slots. */
    Result<CarbonTrace> realize(std::size_t resolved_slots) const;
};

/** CIS forecast configuration (cheap; built per cell). */
struct CisSpec
{
    /** "oracle" (trace truth), "persistence", or "profile". */
    std::string forecaster = "oracle";
    /** Multiplicative forecast noise sigma (oracle only). */
    double noise = 0.0;
    /** Noise stream seed. */
    std::uint64_t seed = 0;
};

/** Everything one simulation cell needs, as plain data. */
struct ScenarioSpec
{
    /** Cell label for sweep reporting (free-form). */
    std::string label;

    WorkloadSpec workload;
    CarbonSpec carbon;

    /** Scheduling policy name (see tryMakePolicy). */
    std::string policy = "Carbon-Time";
    ResourceStrategy strategy = ResourceStrategy::OnDemandOnly;
    ClusterConfig cluster;

    /** Queue waiting limits (the artifact's "-w SxL"). */
    Seconds short_wait = 6 * kSecondsPerHour;
    Seconds long_wait = 24 * kSecondsPerHour;

    CisSpec cis;

    /** Fault-injection configuration; default (all rates zero)
     *  leaves every cell byte-identical to a fault-free build. */
    FaultSpec fault;

    /**
     * Elastic-scaling profile applied to every job in the cell (see
     * parseElasticProfile for the grammar, e.g.
     * "linear:max=4" or "diminishing:max=8,alpha=0.7"). Empty or
     * "off" leaves every job fixed-width and the cell byte-identical
     * to a pre-elastic build.
     */
    std::string elastic_profile;
};

/**
 * Hourly slots covering `trace`'s busy horizon plus waiting and
 * margin slack — the default carbon-trace length when a CarbonSpec
 * does not pin one.
 */
std::size_t carbonSlotsFor(const JobTrace &trace, Seconds long_wait);

/**
 * Content-keyed, thread-safe cache of expensive scenario assets.
 * Each distinct key is built exactly once (builds are serialized);
 * errors are cached like values so a bad input reports cheaply.
 */
class AssetCache
{
  public:
    AssetCache() = default;
    AssetCache(const AssetCache &) = delete;
    AssetCache &operator=(const AssetCache &) = delete;

    /** The JobTrace for `spec`, building it on first use. */
    Result<std::shared_ptr<const JobTrace>>
    trace(const WorkloadSpec &spec);

    /** The CarbonTrace for `spec` at `resolved_slots` slots. */
    Result<std::shared_ptr<const CarbonTrace>>
    carbon(const CarbonSpec &spec, std::size_t resolved_slots);

    /**
     * The calibrated QueueConfig for `spec`'s trace under the given
     * waiting limits, equal to calibratedQueues(trace, short_wait,
     * long_wait). The trace and its calibration are cached once per
     * workload (two lookups); the waits are applied per call.
     */
    Result<std::shared_ptr<const QueueConfig>>
    queues(const WorkloadSpec &spec, Seconds short_wait,
           Seconds long_wait);

    /** Lookups served from the cache. */
    std::size_t hits() const;
    /** Lookups that built (or failed to build) a new asset. */
    std::size_t misses() const;

  private:
    template <typename T, typename Builder>
    Result<std::shared_ptr<const T>>
    lookup(std::map<std::string, Result<std::shared_ptr<const T>>>
               &entries,
           const std::string &key, Builder &&builder);

    mutable std::mutex mutex_;
    std::map<std::string, Result<std::shared_ptr<const JobTrace>>>
        traces_;
    std::map<std::string, Result<std::shared_ptr<const CarbonTrace>>>
        carbons_;
    /** calibratedQueues() of each workload's trace, keyed like it. */
    std::map<std::string, Result<std::shared_ptr<const QueueConfig>>>
        calibrations_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
};

/**
 * One scenario's realized, owning asset bundle: the cached shared
 * assets (trace, carbon, queues), the per-cell collaborators
 * (policy, forecaster, CIS, fault wiring, elastic profile), and the
 * resolved cluster/strategy pair. Produced by realizeScenario();
 * consumed either as a batch SimulationSetup via setup() or held
 * alive by the serving daemon, whose scheduler outlives any single
 * call. Movable; the bundle keeps every internal reference stable
 * because each referenced collaborator lives behind its own
 * allocation.
 */
struct RealizedScenario
{
    RealizedScenario();
    RealizedScenario(RealizedScenario &&) noexcept;
    RealizedScenario &operator=(RealizedScenario &&) noexcept;
    ~RealizedScenario();

    std::shared_ptr<const JobTrace> trace;
    std::shared_ptr<const CarbonTrace> carbon;
    std::shared_ptr<const QueueConfig> queues;
    PolicyPtr policy;
    /** nullptr when the spec asked for the oracle forecaster. */
    std::unique_ptr<CarbonForecaster> forecaster;
    std::unique_ptr<CarbonInfoService> cis;
    /** Fault wiring; both nullptr when the cell is fault-free. */
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<FaultyCarbonSource> faulty_cis;
    /** Scenario-wide elastic profile; disabled = fixed-width. */
    ElasticProfile elastic;
    ClusterConfig cluster;
    ResourceStrategy strategy = ResourceStrategy::OnDemandOnly;

    /** The carbon source a scheduler should consult: the faulty
     *  decorator when one is wired, the plain service otherwise. */
    const CarbonInfoSource &carbonSource() const;

    /** Batch view of the bundle, checked with validateSetup().
     *  References the bundle's members — the bundle must outlive
     *  any use of the returned setup. */
    Result<SimulationSetup> setup() const;
};

/**
 * Validate `spec` and realize every asset it names through `cache`:
 * the shared trace/carbon/queue assets plus the per-cell policy,
 * forecaster, CIS, and fault wiring. All input problems surface as
 * an error Status, never as an exit. This is the single asset-
 * wiring path behind runScenario() and the serving daemon — extend
 * it, not its callers, when scenarios grow a knob.
 */
Result<RealizedScenario> realizeScenario(const ScenarioSpec &spec,
                                         AssetCache &cache);

/**
 * Run one scenario end to end: realizeScenario() + the checked
 * batch simulator. Every "run a scenario" surface (SweepEngine
 * cells, gaia_run, scenario-driven benches) funnels through here.
 * `storage`'s outcome and segment columns are recycled as the
 * result's (see simulateChecked); SweepEngine hands each cell its
 * previous result this way.
 */
Result<SimulationResult>
runScenario(const ScenarioSpec &spec, AssetCache &cache,
            SimulationResult storage = {});

/** Convenience overload with a private single-use cache, for
 *  one-off callers with no sweep to share assets with. */
Result<SimulationResult> runScenario(const ScenarioSpec &spec);

} // namespace gaia

#endif // GAIA_ANALYSIS_SCENARIO_H
