#include "analysis/scenario.h"

#include <sstream>
#include <utility>

#include "analysis/harness.h"
#include "common/logging.h"
#include "core/cis.h"
#include "core/policy_factory.h"
#include "fault/faulty_source.h"
#include "fault/injector.h"
#include "sim/simulator.h"
#include "trace/forecast.h"
#include "workload/elastic_profile.h"
#include "workload/resampler.h"

namespace gaia {

WorkloadSpec
WorkloadSpec::year(WorkloadSource source, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.kind = Kind::Builtin;
    spec.source = source;
    spec.options.job_count = 100000;
    spec.options.span = kSecondsPerYear;
    spec.options.seed = seed;
    return spec;
}

WorkloadSpec
WorkloadSpec::week(std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.kind = Kind::Builtin;
    spec.source = WorkloadSource::AlibabaPai;
    spec.options.job_count = 1000;
    spec.options.span = kSecondsPerWeek;
    spec.options.max_cpus = 4; // paper: testbed budget cap
    spec.options.seed = seed;
    return spec;
}

WorkloadSpec
WorkloadSpec::motivating(Seconds span, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.kind = Kind::Motivating;
    spec.options.span = span;
    spec.options.seed = seed;
    return spec;
}

WorkloadSpec
WorkloadSpec::builtin(WorkloadSource source,
                      const TraceBuildOptions &options)
{
    WorkloadSpec spec;
    spec.kind = Kind::Builtin;
    spec.source = source;
    spec.options = options;
    return spec;
}

WorkloadSpec
WorkloadSpec::fromCsv(std::string path, bool resample)
{
    WorkloadSpec spec;
    spec.kind = Kind::Csv;
    spec.csv_path = std::move(path);
    spec.resample = resample;
    return spec;
}

std::string
WorkloadSpec::key() const
{
    std::ostringstream oss;
    switch (kind) {
      case Kind::Builtin:
        oss << "builtin|" << workloadName(source)
            << "|jobs=" << options.job_count
            << "|span=" << options.span
            << "|min=" << options.min_length
            << "|max=" << options.max_length
            << "|cpus=" << options.max_cpus
            << "|seed=" << options.seed;
        break;
      case Kind::Motivating:
        oss << "motivating|span=" << options.span
            << "|seed=" << options.seed;
        break;
      case Kind::Csv:
        oss << "csv|" << csv_path
            << "|resample=" << (resample ? 1 : 0);
        if (resample) {
            oss << "|jobs=" << options.job_count
                << "|span=" << options.span
                << "|min=" << options.min_length
                << "|max=" << options.max_length
                << "|seed=" << options.seed;
        }
        break;
    }
    return oss.str();
}

Result<JobTrace>
WorkloadSpec::realize() const
{
    switch (kind) {
      case Kind::Builtin:
        return buildTrace(source, options);
      case Kind::Motivating:
        GAIA_REQUIRE(options.span > 0,
                     "non-positive motivating span ", options.span);
        return makeMotivatingTrace(options.span, options.seed);
      case Kind::Csv: {
        GAIA_REQUIRE(!csv_path.empty(),
                     "csv workload spec has no path");
        GAIA_TRY_ASSIGN(JobTrace loaded,
                        JobTrace::fromCsv(csv_path, csv_path));
        if (!resample)
            return loaded;
        return buildFromTrace(loaded, options.job_count,
                              options.span, options.seed,
                              options.min_length,
                              options.max_length);
      }
    }
    panic("unknown workload kind");
}

CarbonSpec
CarbonSpec::forRegion(Region region, std::size_t slots,
                      std::uint64_t seed)
{
    CarbonSpec spec;
    spec.kind = Kind::RegionModel;
    spec.region = region;
    spec.slots = slots;
    spec.seed = seed;
    return spec;
}

CarbonSpec
CarbonSpec::fromCsv(std::string path)
{
    CarbonSpec spec;
    spec.kind = Kind::Csv;
    spec.csv_path = std::move(path);
    return spec;
}

std::string
CarbonSpec::key(std::size_t resolved_slots) const
{
    std::ostringstream oss;
    switch (kind) {
      case Kind::RegionModel:
        oss << "region|" << regionName(region)
            << "|slots=" << resolved_slots << "|seed=" << seed;
        break;
      case Kind::Csv:
        oss << "csv|" << csv_path;
        break;
    }
    return oss.str();
}

Result<CarbonTrace>
CarbonSpec::realize(std::size_t resolved_slots) const
{
    switch (kind) {
      case Kind::RegionModel:
        GAIA_REQUIRE(resolved_slots > 0,
                     "carbon trace needs at least one slot");
        return makeRegionTrace(region, resolved_slots, seed);
      case Kind::Csv:
        GAIA_REQUIRE(!csv_path.empty(),
                     "csv carbon spec has no path");
        return CarbonTrace::fromCsv(csv_path, csv_path);
    }
    panic("unknown carbon kind");
}

std::size_t
carbonSlotsFor(const JobTrace &trace, Seconds long_wait)
{
    // Cover the busy horizon plus scheduling slack (matches the
    // historical gaia_run derivation).
    const Seconds horizon =
        trace.busyHorizon() + long_wait + 2 * kSecondsPerDay;
    return static_cast<std::size_t>(
        (horizon + kSecondsPerHour - 1) / kSecondsPerHour);
}

template <typename T, typename Builder>
Result<std::shared_ptr<const T>>
AssetCache::lookup(
    std::map<std::string, Result<std::shared_ptr<const T>>> &entries,
    const std::string &key, Builder &&builder)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries.find(key);
    if (it != entries.end()) {
        ++hits_;
        return it->second;
    }
    // Building under the lock serializes construction but
    // guarantees each key is built exactly once — the property the
    // sweep summary reports on.
    ++misses_;
    Result<std::shared_ptr<const T>> built = builder();
    return entries.emplace(key, std::move(built)).first->second;
}

Result<std::shared_ptr<const JobTrace>>
AssetCache::trace(const WorkloadSpec &spec)
{
    return lookup(
        traces_, spec.key(),
        [&]() -> Result<std::shared_ptr<const JobTrace>> {
            Result<JobTrace> built = spec.realize();
            if (!built.isOk())
                return built.status();
            return std::shared_ptr<const JobTrace>(
                std::make_shared<JobTrace>(
                    std::move(built).value()));
        });
}

Result<std::shared_ptr<const CarbonTrace>>
AssetCache::carbon(const CarbonSpec &spec,
                   std::size_t resolved_slots)
{
    return lookup(
        carbons_, spec.key(resolved_slots),
        [&]() -> Result<std::shared_ptr<const CarbonTrace>> {
            Result<CarbonTrace> built =
                spec.realize(resolved_slots);
            if (!built.isOk())
                return built.status();
            return std::shared_ptr<const CarbonTrace>(
                std::make_shared<CarbonTrace>(
                    std::move(built).value()));
        });
}

namespace {

/**
 * A calibratedQueues() result with its short and long waiting limits
 * replaced: equal to calibratedQueues(trace, short_wait, long_wait)
 * for the trace it was calibrated on, without another pass over it.
 */
QueueConfig
withWaits(const QueueConfig &calibrated, Seconds short_wait,
          Seconds long_wait)
{
    std::vector<QueueSpec> queues = calibrated.queues();
    GAIA_ASSERT(queues.size() == 2, "expected the short/long pair, got ",
                queues.size(), " queues");
    queues[0].max_wait = short_wait;
    queues[1].max_wait = long_wait;
    return QueueConfig(std::move(queues));
}

} // namespace

Result<std::shared_ptr<const QueueConfig>>
AssetCache::queues(const WorkloadSpec &spec, Seconds short_wait,
                   Seconds long_wait)
{
    // Fetch the trace first (its own cache entry) so the calibration
    // builder never nests a cache lookup under the lock.
    GAIA_TRY_ASSIGN(const std::shared_ptr<const JobTrace> trace_ptr,
                    trace(spec));
    // J_avg depends on the trace and the queue length bounds only, so
    // one calibration per workload serves every waiting pair.
    GAIA_TRY_ASSIGN(
        const std::shared_ptr<const QueueConfig> calibrated,
        lookup(calibrations_, spec.key(),
               [&]() -> Result<std::shared_ptr<const QueueConfig>> {
                   return std::shared_ptr<const QueueConfig>(
                       std::make_shared<QueueConfig>(
                           calibratedQueues(*trace_ptr)));
               }));
    return std::shared_ptr<const QueueConfig>(
        std::make_shared<QueueConfig>(
            withWaits(*calibrated, short_wait, long_wait)));
}

std::size_t
AssetCache::hits() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::size_t
AssetCache::misses() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

RealizedScenario::RealizedScenario() = default;
RealizedScenario::RealizedScenario(RealizedScenario &&) noexcept =
    default;
RealizedScenario &
RealizedScenario::operator=(RealizedScenario &&) noexcept = default;
RealizedScenario::~RealizedScenario() = default;

const CarbonInfoSource &
RealizedScenario::carbonSource() const
{
    GAIA_ASSERT(cis != nullptr, "scenario was never realized");
    if (faulty_cis != nullptr)
        return *faulty_cis;
    return *cis;
}

Result<SimulationSetup>
RealizedScenario::setup() const
{
    GAIA_ASSERT(trace != nullptr && policy != nullptr &&
                    queues != nullptr && cis != nullptr,
                "scenario was never realized");
    SimulationSetup setup;
    setup.trace = trace.get();
    setup.policy = policy.get();
    setup.queues = queues.get();
    setup.cis = &carbonSource();
    setup.cluster = cluster;
    setup.strategy = strategy;
    setup.faults = injector.get();
    if (elastic.enabled())
        setup.elastic = &elastic;
    GAIA_TRY(validateSetup(setup));
    return setup;
}

Result<RealizedScenario>
realizeScenario(const ScenarioSpec &spec, AssetCache &cache)
{
    GAIA_TRY(validateClusterSetup(spec.cluster, spec.strategy));
    GAIA_REQUIRE(spec.short_wait >= 0 && spec.long_wait >= 0,
                 "negative waiting limit");
    GAIA_REQUIRE(spec.short_wait <= spec.long_wait,
                 "short waiting limit ", spec.short_wait,
                 "s exceeds long limit ", spec.long_wait, "s");
    GAIA_REQUIRE(spec.cis.noise >= 0.0 &&
                     spec.cis.noise <= kMaxForecastNoise,
                 "forecast noise ", spec.cis.noise, " outside [0, ",
                 kMaxForecastNoise, "]");
    GAIA_TRY(spec.fault.validate());

    RealizedScenario out;
    out.cluster = spec.cluster;
    out.strategy = spec.strategy;
    GAIA_TRY_ASSIGN(out.elastic,
                    parseElasticProfile(spec.elastic_profile));

    GAIA_TRY_ASSIGN(out.trace, cache.trace(spec.workload));
    if (out.trace->empty())
        return Status::failedPrecondition("workload trace is empty");

    const std::size_t slots =
        spec.carbon.slots > 0
            ? spec.carbon.slots
            : carbonSlotsFor(*out.trace, spec.long_wait);
    GAIA_TRY_ASSIGN(out.carbon, cache.carbon(spec.carbon, slots));
    GAIA_TRY_ASSIGN(out.queues,
                    cache.queues(spec.workload, spec.short_wait,
                                 spec.long_wait));
    GAIA_TRY_ASSIGN(out.policy, tryMakePolicy(spec.policy));

    if (spec.cis.forecaster == "persistence") {
        out.forecaster = std::make_unique<PersistenceForecaster>();
    } else if (spec.cis.forecaster == "profile") {
        out.forecaster =
            std::make_unique<DiurnalProfileForecaster>();
    } else {
        GAIA_REQUIRE(spec.cis.forecaster == "oracle",
                     "unknown forecaster '", spec.cis.forecaster,
                     "'; expected oracle, persistence, or profile");
    }
    out.cis = out.forecaster
                  ? std::make_unique<CarbonInfoService>(
                        *out.carbon, *out.forecaster)
                  : std::make_unique<CarbonInfoService>(
                        *out.carbon, spec.cis.noise, spec.cis.seed);

    // Fault wiring: the injector exists whenever any fault is
    // configured; the source decorator only when a carbon-source
    // fault is. Both are per-cell state, never cached.
    if (spec.fault.enabled())
        out.injector = std::make_unique<FaultInjector>(spec.fault);
    if (out.injector != nullptr && out.injector->cisFaults()) {
        out.faulty_cis = std::make_unique<FaultyCarbonSource>(
            *out.cis, *out.injector);
    }
    return out;
}

Result<SimulationResult>
runScenario(const ScenarioSpec &spec, AssetCache &cache,
            SimulationResult storage)
{
    GAIA_TRY_ASSIGN(const RealizedScenario realized,
                    realizeScenario(spec, cache));
    GAIA_TRY_ASSIGN(const SimulationSetup setup, realized.setup());
    return simulateChecked(setup, std::move(storage));
}

Result<SimulationResult>
runScenario(const ScenarioSpec &spec)
{
    AssetCache cache;
    return runScenario(spec, cache);
}

} // namespace gaia
