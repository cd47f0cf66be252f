/**
 * @file
 * The two batch-simulator workloads of the ledger.
 *
 *  - fig14_year: the paper's costliest figure. Start-time policies
 *    with windows up to 84 h put most host time in planning and the
 *    PlanCache, so memo, slot-table and plan changes show here.
 *  - hybrid_year: suspend-resume and threshold policies on a reserved
 *    pool plus evicting spot put the time in the engine (segment
 *    events, the pending set, eviction restarts, accounting) and in
 *    uncached carbon-source calls. A PlanCache-only change should not
 *    move it.
 */

#include <algorithm>
#include <cmath>

#include "analysis/parallel.h"
#include "analysis/sweep.h"
#include "common/stats.h"
#include "core/cis.h"
#include "core/policy.h"
#include "perf.h"
#include "sim/driver.h"
#include "sim/online.h"
#include "sim/results.h"

namespace gaia::perf {

namespace {

/** Hourly carbon slots of a week-long run plus margin. */
constexpr std::size_t kWeekSlots = 24 * (7 + 6);

/** Cold asset builds behind setup_s. */
constexpr int kSetupBuilds = 15;
/** Cold asset builds behind each traced asset-layer median. */
constexpr int kLayerBuilds = 3;

/** A sim workload's cells and its fixed run length. */
struct SimWorkload
{
    std::vector<Cell> cells;
    /** Measured sweep passes of the untraced run. */
    std::size_t passes = 0;
    /** Serial decorated rounds of the traced run. */
    std::size_t rounds = 0;
};

std::vector<Cell>
fig14Cells(const Options &options)
{
    ScenarioSpec base;
    if (options.quick) {
        base.workload = WorkloadSpec::week(options.seed);
        base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                            kWeekSlots, options.seed);
    } else {
        base.workload =
            WorkloadSpec::year(WorkloadSource::AlibabaPai, options.seed);
        base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                            kYearSlots, options.seed);
    }

    std::vector<Cell> cells;
    ScenarioSpec nowait = base;
    nowait.policy = "NoWait";
    cells.push_back({"NoWait", nowait});
    // Panel (a) sweeps W_short at W_long = 24 h, panel (b) W_long at
    // W_short = 6 h; both hold the 6x24 point, as the figure does.
    const auto add_panel = [&](const char *panel, int w_short,
                               int w_long) {
        for (const char *policy : {"Lowest-Window", "Carbon-Time"}) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.short_wait = hours(w_short);
            spec.long_wait = hours(w_long);
            cells.push_back({std::string(panel) + "-" + policy + "-" +
                                 std::to_string(w_short) + "x" +
                                 std::to_string(w_long),
                             spec});
        }
    };
    for (int w : {1, 3, 6, 12, 18, 24})
        add_panel("a", w, 24);
    for (int w : {6, 12, 24, 36, 48, 72, 84})
        add_panel("b", 6, w);
    return cells;
}

std::vector<Cell>
hybridCells(const Options &options)
{
    ScenarioSpec base;
    if (options.quick) {
        TraceBuildOptions week;
        week.job_count = 1000;
        week.span = kSecondsPerWeek;
        week.seed = options.seed;
        base.workload = WorkloadSpec::builtin(WorkloadSource::AzureVm, week);
        base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                            kWeekSlots, options.seed);
    } else {
        base.workload =
            WorkloadSpec::year(WorkloadSource::AzureVm, options.seed);
        base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                            kYearSlots, options.seed);
    }
    base.strategy = ResourceStrategy::SpotReserved;
    base.cluster.spot_eviction_rate = 0.10;
    base.cluster.spot_max_length = hours(6);

    std::vector<Cell> cells;
    for (const char *policy :
         {"Wait-Awhile", "Ecovisor", "Carbon-Time", "Lowest-Slot"}) {
        for (int reserved : {0, 40, 80, 120, 160}) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.cluster.reserved_cores = reserved;
            cells.push_back({std::string(policy) + "-R" +
                                 std::to_string(reserved),
                             spec});
        }
    }
    return cells;
}

/** Forwards to the wrapped policy and adds up plan() wall time. */
class TimedPolicy final : public SchedulingPolicy
{
  public:
    explicit TimedPolicy(const SchedulingPolicy &inner) : inner_(inner)
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
        const Clock::time_point begin = Clock::now();
        SchedulePlan plan = inner_.plan(job, ctx);
        plan_time_ += Clock::now() - begin;
        return plan;
    }

    double planSeconds() const
    {
        return std::chrono::duration<double>(plan_time_).count();
    }

  private:
    const SchedulingPolicy &inner_;
    /** One cell runs on one thread, so a plain accumulator will do. */
    mutable Clock::duration plan_time_{0};
};

/** Carbon-source calls by kind. */
struct CisCalls
{
    std::uint64_t integrate = 0;
    std::uint64_t min_slot = 0;
    std::uint64_t at_slot = 0;
    std::uint64_t percentile = 0;
    std::uint64_t intensity = 0;
};

/** Forwards to the wrapped source and counts calls (no clock reads). */
class CountingCis final : public CarbonInfoSource
{
  public:
    explicit CountingCis(const CarbonInfoSource &inner) : inner_(inner)
    {
    }

    const CarbonTrace &trace() const override { return inner_.trace(); }
    bool availableAt(Seconds now) const override
    {
        return inner_.availableAt(now);
    }
    bool slotInvariantForecasts() const override
    {
        return inner_.slotInvariantForecasts();
    }
    double intensityAt(Seconds t) const override
    {
        ++calls_.intensity;
        return inner_.intensityAt(t);
    }
    double forecastAtSlot(Seconds now, SlotIndex slot) const override
    {
        ++calls_.at_slot;
        return inner_.forecastAtSlot(now, slot);
    }
    double forecastIntegrate(Seconds now, Seconds from,
                             Seconds to) const override
    {
        ++calls_.integrate;
        return inner_.forecastIntegrate(now, from, to);
    }
    SlotIndex forecastMinSlot(Seconds now, Seconds from,
                              Seconds to) const override
    {
        ++calls_.min_slot;
        return inner_.forecastMinSlot(now, from, to);
    }
    double forecastPercentile(Seconds now, Seconds from, Seconds to,
                              double p) const override
    {
        ++calls_.percentile;
        return inner_.forecastPercentile(now, from, to, p);
    }

    const CisCalls &calls() const { return calls_; }

  private:
    const CarbonInfoSource &inner_;
    mutable CisCalls calls_;
};

/** Layer times and counts of one decorated serial cell. */
struct CellLedger
{
    double realize_s = 0.0;
    /** Building the engine and sizing its job pool; engine layer. */
    double create_s = 0.0;
    double plan_s = 0.0;
    double replay_s = 0.0;
    double finish_s = 0.0;
    double fingerprint_s = 0.0;
    /** realize through finish; fingerprinting is outside the sweep
     *  path and so outside the wall time too. */
    double wall_s = 0.0;
    std::uint64_t jobs = 0;
    std::uint64_t events = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    CisCalls cis;
    std::uint64_t fingerprint = 0;

    /** Adds up every time and count (not the fingerprint). */
    CellLedger &operator+=(const CellLedger &c)
    {
        realize_s += c.realize_s;
        create_s += c.create_s;
        plan_s += c.plan_s;
        replay_s += c.replay_s;
        finish_s += c.finish_s;
        fingerprint_s += c.fingerprint_s;
        wall_s += c.wall_s;
        jobs += c.jobs;
        events += c.events;
        cache_hits += c.cache_hits;
        cache_misses += c.cache_misses;
        cis.integrate += c.cis.integrate;
        cis.min_slot += c.cis.min_slot;
        cis.at_slot += c.cis.at_slot;
        cis.percentile += c.cis.percentile;
        cis.intensity += c.cis.intensity;
        return *this;
    }
};

/**
 * One cell through OnlineScheduler::create -> reserveJobs ->
 * VirtualClockDriver::replay / finish, with the reservation horizon
 * derived exactly as simulateChecked() derives it, and the policy and
 * carbon source wrapped in the decorators above.
 */
Result<CellLedger>
runDecoratedCell(const ScenarioSpec &spec, AssetCache &cache)
{
    static obs::Counter &events = obs::counter("sim.events_dispatched");
    CellLedger ledger;
    const Clock::time_point begin = Clock::now();

    Clock::time_point t = Clock::now();
    Result<RealizedScenario> realized = [&] {
        const CoarseSpan span("perf.realize", true);
        return realizeScenario(spec, cache);
    }();
    GAIA_TRY(realized.status());
    GAIA_TRY_ASSIGN(const SimulationSetup setup, realized->setup());
    ledger.realize_s = secondsSince(t);

    t = Clock::now();
    ClusterConfig cluster = setup.cluster;
    if (cluster.reservation_horizon == 0)
        cluster.reservation_horizon =
            defaultReservationHorizon(*setup.trace, *setup.queues);
    const TimedPolicy policy(*setup.policy);
    const CountingCis cis(*setup.cis);
    GAIA_TRY_ASSIGN(OnlineScheduler scheduler,
                    OnlineScheduler::create(policy, *setup.queues, cis,
                                            cluster, setup.strategy,
                                            setup.trace->name(),
                                            setup.faults));
    scheduler.reserveJobs(setup.trace->jobCount());
    if (setup.elastic != nullptr)
        scheduler.setDefaultElasticProfile(*setup.elastic);
    VirtualClockDriver feed(scheduler);
    const std::uint64_t events_before = events.value();
    ledger.create_s = secondsSince(t);

    t = Clock::now();
    {
        const CoarseSpan span("perf.replay", true);
        GAIA_TRY(feed.replay(*setup.trace));
    }
    ledger.replay_s = secondsSince(t);

    t = Clock::now();
    SimulationResult result = [&] {
        const CoarseSpan span("perf.finish", true);
        return feed.finish();
    }();
    ledger.finish_s = secondsSince(t);
    ledger.wall_s = secondsSince(begin);

    t = Clock::now();
    {
        const CoarseSpan span("perf.fingerprint", true);
        ledger.fingerprint = resultFingerprint(result);
    }
    ledger.fingerprint_s = secondsSince(t);

    ledger.plan_s = policy.planSeconds();
    ledger.jobs = result.outcomes.size();
    ledger.events = events.value() - events_before;
    ledger.cache_hits = scheduler.planCache().hits();
    ledger.cache_misses = scheduler.planCache().misses();
    ledger.cis = cis.calls();
    return ledger;
}

/**
 * Fingerprints every cell of a completed pass (in parallel; 0 for a
 * failed cell) and counts each cell as an operation, which fails on
 * an error Status or, when `reference` is not empty, on a fingerprint
 * that differs from it.
 */
std::vector<std::uint64_t>
checkPass(const SweepEngine &sweep, const std::vector<Cell> &cells,
          unsigned replicas, const std::vector<std::uint64_t> &reference,
          unsigned threads, Report &report)
{
    std::vector<std::uint64_t> fps(sweep.size(), 0);
    parallelFor(
        sweep.size(),
        [&](std::size_t i) {
            if (sweep.result(i).isOk())
                fps[i] = resultFingerprint(sweep.result(i).value());
        },
        threads);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const std::string &label = cells[i / replicas].label;
        const Result<SimulationResult> &cell = sweep.result(i);
        if (!cell.isOk())
            report.check(false, "cell " + label + ": " +
                                    cell.status().toString());
        else
            report.check(reference.empty() || reference[i] == fps[i],
                         "cell " + label + " fingerprint " + hex(fps[i]) +
                             " changed between passes");
    }
    return fps;
}

/** Cold builds of every cell's assets on a fresh cache; seconds per
 *  build. */
std::vector<double>
coldAssetBuilds(const std::vector<Cell> &cells, int builds,
                Report &report)
{
    std::vector<double> seconds;
    for (int b = 0; b < builds; ++b) {
        AssetCache cache;
        const Clock::time_point begin = Clock::now();
        for (const Cell &cell : cells) {
            const Result<RealizedScenario> realized =
                realizeScenario(cell.spec, cache);
            report.check(realized.isOk(),
                         "realize " + cell.label + ": " +
                             realized.status().toString());
        }
        seconds.push_back(secondsSince(begin));
    }
    return seconds;
}

void
queueCells(SweepEngine &sweep, const std::vector<Cell> &cells,
           unsigned replicas)
{
    for (const Cell &cell : cells) {
        ScenarioSpec spec = cell.spec;
        spec.label = cell.label;
        if (replicas == 1)
            sweep.add(std::move(spec));
        else
            sweep.addGroup(std::vector<ScenarioSpec>(replicas, spec));
    }
}

/** End-to-end run: cold asset builds, then timed SweepEngine passes. */
void
runUntraced(const Options &options, const SimWorkload &workload,
            Report &report)
{
    const Deadline deadline(options);
    const std::vector<Cell> &cells = workload.cells;
    report.add("setup_s",
               percentile(coldAssetBuilds(cells, kSetupBuilds, report), 50),
               "s");

    SweepEngine sweep(options.threads);
    queueCells(sweep, cells, 1);
    sweep.run(); // cold pass: builds the shared assets
    const std::vector<std::uint64_t> reference =
        checkPass(sweep, cells, 1, {}, options.threads, report);
    std::vector<std::size_t> outcomes(cells.size(), 0);
    std::uint64_t jobs = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        checkPinned(options, cells[i].label, reference[i], report);
        if (sweep.result(i).isOk())
            outcomes[i] = sweep.result(i).value().outcomes.size();
        jobs += outcomes[i];
    }

    // Every pass's cells are checked for errors and lost jobs, and the
    // last pass's fingerprints must match the cold pass's
    // (fingerprinting every pass would cost as much as the pass).
    std::vector<double> pass_s;
    while (pass_s.size() < workload.passes && deadline.check(report)) {
        sweep.run();
        pass_s.push_back(sweep.lastRunSeconds());
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const Result<SimulationResult> &cell = sweep.result(i);
            report.check(cell.isOk() && cell.value().outcomes.size() ==
                                            outcomes[i],
                         "cell " + cells[i].label +
                             " failed or lost jobs in a measured pass");
        }
    }
    checkPass(sweep, cells, 1, reference, options.threads, report);
    if (pass_s.empty())
        return;

    report.add("jobs_per_s",
               static_cast<double>(jobs) / percentile(pass_s, 50),
               "jobs/s");
}

} // namespace

void
reportSimLayers(const Options &options, const std::vector<Cell> &cells,
                unsigned replicas, std::size_t rounds, Report &report)
{
    const Deadline deadline(options);
    // Asset layers: each build from cold.
    const ScenarioSpec &first = cells.front().spec;
    std::vector<double> workload_s, trace_s;
    for (int b = 0; b < kLayerBuilds; ++b) {
        Clock::time_point t = Clock::now();
        const Result<JobTrace> trace = first.workload.realize();
        workload_s.push_back(secondsSince(t));
        report.check(trace.isOk(), "workload realize: " +
                                       trace.status().toString());
        if (!trace.isOk())
            return;
        const std::size_t slots =
            first.carbon.slots > 0
                ? first.carbon.slots
                : carbonSlotsFor(trace.value(), first.long_wait);
        t = Clock::now();
        const Result<CarbonTrace> carbon = first.carbon.realize(slots);
        trace_s.push_back(secondsSince(t));
        report.check(carbon.isOk(), "carbon realize: " +
                                        carbon.status().toString());
    }
    report.add("workload.realize_s", percentile(workload_s, 50), "s");
    report.add("trace.realize_s", percentile(trace_s, 50), "s");
    report.add("analysis.asset_s",
               percentile(coldAssetBuilds(cells, kLayerBuilds, report), 50),
               "s");

    // Executor layer: one detailed-timing pass after a cold one.
    SweepEngine sweep(options.threads);
    queueCells(sweep, cells, replicas);
    sweep.run();
    const std::vector<std::uint64_t> reference =
        checkPass(sweep, cells, replicas, {}, options.threads, report);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        checkPinned(options, cells[i].label,
                    reference[i * replicas], report);
        for (unsigned r = 1; r < replicas; ++r)
            report.check(reference[i * replicas + r] ==
                             reference[i * replicas],
                         "replicas of " + cells[i].label + " differ");
    }

    obs::Histogram &cell_seconds = obs::histogram("sweep.cell_seconds");
    obs::Counter &stolen = obs::counter("executor.tasks_stolen");
    cell_seconds.reset();
    const std::uint64_t stolen_before = stolen.value();
    obs::setDetailedTiming(true);
    {
        const CoarseSpan span("perf.sweep_pass", true);
        sweep.run();
    }
    obs::setDetailedTiming(false);
    checkPass(sweep, cells, replicas, reference, options.threads, report);
    report.add("analysis.cell_ms_mean",
               cell_seconds.sum() /
                   static_cast<double>(std::max<std::uint64_t>(
                       cell_seconds.count(), 1)) *
                   1e3,
               "ms");
    report.add("analysis.cell_ms_max", cell_seconds.max() * 1e3, "ms");
    report.add("common.parallel_eff",
               cell_seconds.sum() /
                   (sweep.lastRunSeconds() * options.threads),
               "fraction");
    report.add("common.tasks_stolen",
               static_cast<double>(stolen.value() - stolen_before),
               "count");

    // Serial decorated cells against serial plain ones. The layers
    // tile each decorated cell's wall time by construction (engine
    // time is replay time minus plan time), so the independent check
    // on them is trace_overhead_frac: decorated against plain time.
    AssetCache warm;
    for (const Cell &cell : cells)
        (void)realizeScenario(cell.spec, warm);
    std::vector<double> plan_ns, plan_share, engine_ns, engine_ns_event,
        finalize_ns, fingerprint_ns, overhead;
    CellLedger counts; // deterministic, so one round's are kept
    while (plan_ns.size() < rounds && deadline.check(report)) {
        CellLedger sum;
        double untraced_s = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            const Result<CellLedger> run =
                runDecoratedCell(cell.spec, warm);
            report.check(run.isOk(), "decorated " + cell.label + ": " +
                                         run.status().toString());
            if (!run.isOk())
                continue;
            const CellLedger &c = run.value();
            report.check(c.fingerprint == reference[i * replicas],
                         "decorated " + cell.label + " fingerprint " +
                             hex(c.fingerprint) +
                             " differs from the sweep's");
            sum += c;

            const Clock::time_point t = Clock::now();
            const Result<SimulationResult> plain =
                runScenario(cell.spec, warm);
            untraced_s += secondsSince(t);
            report.check(plain.isOk(), "plain " + cell.label + ": " +
                                           plain.status().toString());
        }
        if (sum.jobs == 0)
            return;
        const double jobs = static_cast<double>(sum.jobs);
        const double engine_s = sum.create_s + sum.replay_s - sum.plan_s;
        plan_ns.push_back(sum.plan_s / jobs * 1e9);
        plan_share.push_back(sum.plan_s / sum.replay_s);
        engine_ns.push_back(engine_s / jobs * 1e9);
        engine_ns_event.push_back(
            engine_s / static_cast<double>(sum.events) * 1e9);
        finalize_ns.push_back(sum.finish_s / jobs * 1e9);
        fingerprint_ns.push_back(sum.fingerprint_s / jobs * 1e9);
        overhead.push_back(sum.wall_s / untraced_s - 1.0);
        counts = sum;
    }
    if (plan_ns.empty())
        return;

    const double jobs = static_cast<double>(counts.jobs);
    const double lookups =
        static_cast<double>(counts.cache_hits + counts.cache_misses);
    report.add("core.plan_ns_per_job", percentile(plan_ns, 50), "ns");
    report.add("core.plan_share", percentile(plan_share, 50), "fraction");
    report.add("core.plan_cache_hit_ratio",
               lookups > 0 ? counts.cache_hits / lookups : 0.0,
               "fraction");
    report.add("core.plan_cache_misses",
               static_cast<double>(counts.cache_misses), "count");
    report.add("core.cis_calls_per_job.integrate",
               counts.cis.integrate / jobs, "calls/job");
    report.add("core.cis_calls_per_job.min_slot",
               counts.cis.min_slot / jobs, "calls/job");
    report.add("core.cis_calls_per_job.at_slot",
               counts.cis.at_slot / jobs, "calls/job");
    report.add("core.cis_calls_per_job.percentile",
               counts.cis.percentile / jobs, "calls/job");
    report.add("core.cis_calls_per_job.intensity",
               counts.cis.intensity / jobs, "calls/job");
    report.add("sim.engine_ns_per_job", percentile(engine_ns, 50), "ns");
    report.add("sim.events_per_job",
               static_cast<double>(counts.events) / jobs, "events/job");
    report.add("sim.engine_ns_per_event", percentile(engine_ns_event, 50),
               "ns");
    report.add("sim.finalize_ns_per_job", percentile(finalize_ns, 50),
               "ns");
    report.add("sim.fingerprint_ns_per_job",
               percentile(fingerprint_ns, 50), "ns");
    report.add("trace_overhead_frac", percentile(overhead, 50),
               "fraction");
    report.add("rounds", static_cast<double>(plan_ns.size()), "count");
}

void
runSimWorkload(const Options &options, Report &report)
{
    // Counts sized so a run's measured phase takes about 10 s on the
    // reference host.
    SimWorkload workload;
    if (options.workload == "fig14_year")
        workload = {fig14Cells(options), 20, 3};
    else
        workload = {hybridCells(options), 12, 2};
    if (options.quick)
        workload.passes = workload.rounds = 2;
    if (options.traced)
        reportSimLayers(options, workload.cells, 1, workload.rounds,
                        report);
    else
        runUntraced(options, workload, report);
}

} // namespace gaia::perf
