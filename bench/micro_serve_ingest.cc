/**
 * @file
 * Serving-layer ingest harness: measures the submission path of
 * gaia_serve — the lock-free MPSC queue in isolation and the full
 * daemon (queue -> consumer thread -> engine) end to end — and
 * writes the numbers to BENCH_serve.json so serving-perf changes
 * are recorded alongside the code.
 *
 * The headline number is mpsc.multi_producer_per_s: sustained
 * submissions/sec through the queue under producer contention,
 * which bounds how fast any set of clients can stream jobs into
 * one daemon (the acceptance bar is >= 1M/s). The daemon section
 * streams a synthetic arrival-ordered workload through a real
 * ServeDaemon at NoWait (engine work held trivial, so the number
 * isolates the hand-off, not the policy).
 *
 * Flags: --quick (smaller volumes for CI smoke), --json PATH
 * (default <results dir>/BENCH_serve.json).
 */

#include "bench_common.h"

#include <chrono>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "serve/daemon.h"
#include "sim/results.h"

using namespace gaia;
using namespace gaia::serve;

namespace {

double
seconds(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

Job
syntheticJob(std::int64_t i)
{
    return {i, /*submit=*/i, /*length=*/600, /*cpus=*/1};
}

/** Push/pop pairs through the ring from one thread: the contention-
 *  free ceiling of the hand-off. */
double
singleProducerRate(std::size_t total)
{
    MpscQueue<Job> queue(1 << 10);
    const auto begin = std::chrono::steady_clock::now();
    Job out;
    for (std::size_t i = 0; i < total; ++i) {
        GAIA_ASSERT(queue.tryPush(syntheticJob(
                        static_cast<std::int64_t>(i))),
                    "push into empty ring failed");
        GAIA_ASSERT(queue.tryPop(out), "pop after push failed");
    }
    return static_cast<double>(total) / seconds(begin);
}

/** Producers hammer the ring while one consumer drains: sustained
 *  submissions/sec under contention (the headline number). */
double
multiProducerRate(int producers, std::size_t per_producer)
{
    MpscQueue<Job> queue(1 << 12);
    const std::size_t total = producers * per_producer;
    const auto begin = std::chrono::steady_clock::now();

    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&queue, per_producer, p] {
            for (std::size_t i = 0; i < per_producer; ++i) {
                Job job = syntheticJob(
                    static_cast<std::int64_t>(p * per_producer + i));
                while (!queue.tryPush(job))
                    std::this_thread::yield();
            }
        });
    }

    std::size_t received = 0;
    Job out;
    while (received < total) {
        if (queue.tryPop(out))
            ++received;
        else
            std::this_thread::yield();
    }
    for (std::thread &t : threads)
        t.join();
    return static_cast<double>(total) / seconds(begin);
}

struct DaemonScore
{
    double submit_per_s = 0.0;
    double end_to_end_per_s = 0.0;
    std::size_t jobs = 0;
};

/** Stream an arrival-ordered synthetic workload through a real
 *  daemon (unpaced, NoWait) and time submission and drain. */
DaemonScore
daemonIngestRate(std::size_t jobs)
{
    TraceBuildOptions options;
    options.job_count = 200;
    options.span = kSecondsPerDay;
    options.seed = 1;

    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    // Streamed arrivals run one second apart for `jobs` seconds;
    // size the carbon horizon to cover them.
    spec.carbon = CarbonSpec::forRegion(
        Region::SouthAustralia, jobs / kSecondsPerHour + 24 * 7, 1);
    spec.policy = "NoWait";

    ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    GAIA_ASSERT(daemon.isOk(), "daemon start failed: ",
                daemon.status().message());

    DaemonScore score;
    score.jobs = jobs;
    const auto begin = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < jobs; ++i) {
        const Job job = syntheticJob(static_cast<std::int64_t>(i));
        while (!(*daemon)->submit(job).isOk())
            std::this_thread::yield();
    }
    score.submit_per_s =
        static_cast<double>(jobs) / seconds(begin);

    Result<SimulationResult> result = (*daemon)->drain();
    GAIA_ASSERT(result.isOk(), "drain failed: ",
                result.status().message());
    GAIA_ASSERT(result->outcomes.size() == jobs,
                "streamed jobs went missing");
    score.end_to_end_per_s =
        static_cast<double>(jobs) / seconds(begin);
    return score;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bool quick = false;
    std::string json_path =
        bench::resultsDir() + "/BENCH_serve.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--json" && i + 1 < argc)
            json_path = argv[++i];
    }

    bench::banner("Serving-layer ingest",
                  "submission throughput through the MPSC queue "
                  "and the daemon end to end");

    const std::size_t kQueueOps = quick ? 400'000 : 4'000'000;
    const int kProducers = 4;
    const std::size_t kPerProducer =
        (quick ? 200'000 : 1'000'000) / kProducers;
    const std::size_t kDaemonJobs = quick ? 20'000 : 100'000;

    const double single = singleProducerRate(kQueueOps);
    std::cout << "mpsc single-producer: " << fmt(single / 1e6, 2)
              << " M submissions/s\n";
    const double multi =
        multiProducerRate(kProducers, kPerProducer);
    std::cout << "mpsc " << kProducers
              << "-producer sustained: " << fmt(multi / 1e6, 2)
              << " M submissions/s\n";

    const DaemonScore daemon = daemonIngestRate(kDaemonJobs);
    std::cout << "daemon submit path:   "
              << fmt(daemon.submit_per_s / 1e6, 2)
              << " M submissions/s (" << daemon.jobs << " jobs)\n"
              << "daemon end to end:    "
              << fmt(daemon.end_to_end_per_s / 1e3, 1)
              << " k jobs/s submitted+scheduled+drained\n";

    bench::JsonReport report;
    report.set("bench", std::string("micro_serve_ingest"));
    report.set("mode", std::string(quick ? "quick" : "full"));
    report.setIn("mpsc", "single_producer_per_s", single);
    report.setIn("mpsc", "multi_producer_per_s", multi);
    report.setIn("mpsc", "producers",
                 static_cast<double>(kProducers));
    report.setIn("daemon", "submit_per_s", daemon.submit_per_s);
    report.setIn("daemon", "end_to_end_per_s",
                 daemon.end_to_end_per_s);
    report.setIn("daemon", "jobs",
                 static_cast<double>(daemon.jobs));
    report.writeTo(json_path);
    return 0;
}
