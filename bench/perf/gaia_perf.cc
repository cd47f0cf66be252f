/**
 * @file
 * gaia_perf — the per-layer performance ledger of the simulator and
 * the serving daemon.
 *
 *   gaia_perf --workload NAME [--seed S] [--seconds T] [--traced]
 *             [--quick] [--json OUT] [--trace-out OUT]
 *             [--emit-fingerprints]
 *
 * Workloads: fig14_year, hybrid_year, serve_stream, serve_socket
 * (see README.md). An untraced run prints the end-to-end metrics, a
 * --traced run the per-layer ones, each as `name value unit`; --json
 * writes them with the run's build type, compiler, nproc, thread
 * count and commit. Inputs are generated in-process from --seed. Each
 * workload runs a fixed count of passes or lifetimes, sized to take
 * about --seconds (default 10) on the reference host; a run whose
 * measured phase takes over four times that fails. The exit code is 0
 * only when no operation failed.
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/executor.h"
#include "perf.h"

using namespace gaia;
using namespace gaia::perf;

namespace {

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "gaia_perf: " << problem << "\n"
              << "usage: gaia_perf --workload "
                 "fig14_year|hybrid_year|serve_stream|serve_socket\n"
                 "                 [--seed S] [--seconds T] [--traced] "
                 "[--quick]\n"
                 "                 [--json OUT] [--trace-out OUT] "
                 "[--emit-fingerprints]\n";
    std::exit(2);
}

double
positive(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(parsed > 0.0))
        usage(flag + " expects a positive number, got '" + value + "'");
    return parsed;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string json_path;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            const std::string text = value();
            const double seed = positive(arg, text);
            if (seed != static_cast<double>(static_cast<long>(seed)))
                usage("--seed expects a positive integer");
            options.seed = static_cast<std::uint64_t>(seed);
        } else if (arg == "--seconds") {
            options.seconds = positive(arg, value());
        } else if (arg == "--traced") {
            options.traced = true;
        } else if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--trace-out") {
            trace_path = value();
        } else if (arg == "--emit-fingerprints") {
            options.emit_fingerprints = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }

    options.pins = Fingerprints(GAIA_PERF_FINGERPRINTS);
    // At most four workers, and never more than the machine has.
    options.threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    setParallelThreads(options.threads);
    if (options.traced)
        obs::setThreadTrackName("main");

    Report report;
    if (options.workload == "fig14_year" ||
        options.workload == "hybrid_year")
        runSimWorkload(options, report);
    else if (options.workload == "serve_stream")
        runServeStream(options, report);
    else if (options.workload == "serve_socket")
        runServeSocket(options, report);
    else
        usage("unknown workload '" + options.workload + "'");

    if (!options.traced)
        report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("error_rate", report.errorRate(), "fraction");
    report.print();

    bool written = true;
    if (!json_path.empty())
        written = report.writeJson(json_path, options);
    if (options.traced && !trace_path.empty())
        written = obs::writeTraceJson(trace_path) && written;
    return report.failedCount() == 0 && report.attemptedCount() > 0 &&
                   written
               ? 0
               : 1;
}
