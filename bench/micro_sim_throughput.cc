/**
 * @file
 * Simulator-core throughput harness: measures cells/sec and
 * jobs/sec on representative sweeps and events/sec on the raw event
 * loop, and writes the numbers to BENCH_sim.json so perf changes
 * are recorded alongside the code.
 *
 * The headline number is the fig14-style waiting sweep (year-long
 * Alibaba-PAI trace, Lowest-Window and Carbon-Time across 13
 * waiting-limit points): its per-candidate carbon-window queries
 * and event churn dominate every figure sweep in this repo. Assets
 * are pre-warmed with a throwaway run so the measured pass times
 * simulation, not trace synthesis.
 *
 * Flags: --quick (week-scale configs for CI smoke), --threads N,
 * --json PATH (default <results dir>/BENCH_sim.json).
 */

#include "bench_common.h"

#include <chrono>

#include "analysis/sweep.h"
#include "sim/event_queue.h"

using namespace gaia;

namespace {

double
seconds(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

struct SweepScore
{
    std::size_t cells = 0;
    std::size_t jobs = 0;
    double secs = 0.0;
};

/**
 * Run `sweep` twice — once to warm the asset cache, once measured —
 * and count the jobs simulated across cells.
 */
SweepScore
measureSweep(SweepEngine &sweep)
{
    sweep.run(); // warm-up: builds traces and queue configs
    sweep.run(); // measured: simulation only
    SweepScore score;
    score.cells = sweep.size();
    score.secs = sweep.lastRunSeconds();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const Result<SimulationResult> &cell = sweep.result(i);
        if (!cell.isOk())
            fatal("bench cell failed: ",
                  cell.status().toString());
        score.jobs += cell.value().outcomes.size();
    }
    return score;
}

void
report(bench::JsonReport &json, const std::string &name,
       const SweepScore &score)
{
    json.setIn(name, "cells", static_cast<double>(score.cells));
    json.setIn(name, "jobs", static_cast<double>(score.jobs));
    json.setIn(name, "seconds", score.secs);
    const double cps =
        score.secs > 0.0 ? score.cells / score.secs : 0.0;
    const double jps =
        score.secs > 0.0 ? score.jobs / score.secs : 0.0;
    json.setIn(name, "cells_per_sec", cps);
    json.setIn(name, "jobs_per_sec", jps);
    std::cout << "  " << name << ": " << score.cells
              << " cells, " << score.jobs << " jobs in "
              << fmt(score.secs, 3) << "s  ->  " << fmt(cps, 2)
              << " cells/s, " << fmt(jps, 0) << " jobs/s\n";
}

/** The fig14 waiting sweep — the PR's ≥2× speedup target. */
SweepScore
waitingSweep(bool quick)
{
    ScenarioSpec base;
    if (quick) {
        base.workload = WorkloadSpec::week(1);
        base.carbon = CarbonSpec::forRegion(
            Region::SouthAustralia, bench::weekSlots(), 1);
    } else {
        base.workload =
            WorkloadSpec::year(WorkloadSource::AlibabaPai, 1);
        base.carbon = CarbonSpec::forRegion(
            Region::SouthAustralia, bench::yearSlots(), 1);
    }

    std::vector<std::pair<Seconds, Seconds>> points;
    const std::vector<int> shorts =
        quick ? std::vector<int>{1, 6, 24}
              : std::vector<int>{1, 3, 6, 12, 18, 24};
    const std::vector<int> longs =
        quick ? std::vector<int>{6, 24, 48}
              : std::vector<int>{6, 12, 24, 36, 48, 72, 84};
    for (int w : shorts)
        points.emplace_back(hours(w), hours(24));
    for (int w : longs)
        points.emplace_back(hours(6), hours(w));

    SweepEngine sweep;
    ScenarioSpec nowait = base;
    nowait.policy = "NoWait";
    sweep.add(std::move(nowait));
    for (const auto &[w_short, w_long] : points) {
        for (const char *policy :
             {"Lowest-Window", "Carbon-Time"}) {
            ScenarioSpec spec = base;
            spec.policy = policy;
            spec.short_wait = w_short;
            spec.long_wait = w_long;
            sweep.add(std::move(spec));
        }
    }
    return measureSweep(sweep);
}

/** The fig08 policy comparison at week scale. */
SweepScore
policySweep()
{
    ScenarioSpec base;
    base.workload = WorkloadSpec::week(1);
    base.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        bench::weekSlots(), 1);
    SweepEngine sweep;
    for (const char *policy :
         {"NoWait", "Lowest-Slot", "Lowest-Window", "Carbon-Time",
          "Ecovisor", "Wait-Awhile"}) {
        ScenarioSpec spec = base;
        spec.policy = policy;
        sweep.add(std::move(spec));
    }
    return measureSweep(sweep);
}

/** Raw event-loop dispatch rate, schedule + run in batches. */
double
eventLoopRate(std::size_t total)
{
    struct Counter : EventQueue::Sink
    {
        std::size_t fired = 0;
        void onEvent(const SimEvent &) override { ++fired; }
        void onArrival(std::uint32_t) override { ++fired; }
    };
    Counter counter;
    EventQueue queue;
    const std::size_t batch = 4096;
    const auto begin = std::chrono::steady_clock::now();
    std::size_t scheduled = 0;
    while (scheduled < total) {
        const Seconds now = queue.now();
        for (std::size_t i = 0; i < batch; ++i) {
            queue.schedule(
                now + static_cast<Seconds>(i % 97),
                static_cast<int>(1 + i % 3),
                SimEvent{static_cast<std::uint32_t>(i % 7),
                         static_cast<std::uint32_t>(i), 0});
        }
        scheduled += batch;
        queue.runAll(counter);
    }
    const double secs = seconds(begin);
    if (counter.fired != scheduled)
        fatal("event loop dropped events: ", counter.fired, " of ",
              scheduled);
    return secs > 0.0 ? scheduled / secs : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bool quick = false;
    std::string json_path =
        bench::resultsDir() + "/BENCH_sim.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
    }

    bench::banner("Simulator throughput",
                  "cells/sec, jobs/sec, and event-loop dispatch "
                  "rate");

    bench::JsonReport json;
    json.set("bench", std::string("micro_sim_throughput"));
    json.set("mode", std::string(quick ? "quick" : "full"));

    report(json, "fig14_waiting_sweep", waitingSweep(quick));
    report(json, "fig08_policy_week", policySweep());

    const std::size_t events = quick ? 1u << 18 : 1u << 22;
    const double rate = eventLoopRate(events);
    json.setIn("event_queue", "events",
               static_cast<double>(events));
    json.setIn("event_queue", "events_per_sec", rate);
    std::cout << "  event_queue: " << events << " events  ->  "
              << fmt(rate / 1e6, 2) << "M events/s\n";

    json.writeTo(json_path);
    return 0;
}
