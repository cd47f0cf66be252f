/**
 * @file
 * gaia_serve — the policy engine as a streaming daemon.
 *
 * Boots a ServeDaemon for the scenario described by the usual
 * gaia_run flags, then serves the line-protocol control socket
 * until a client drains the stream. The run's correctness oracle
 * is driver parity: stream the trace gaia_run --export-workload
 * wrote, drain, and the reported fingerprint matches
 * gaia_run --print-fingerprint for the same scenario.
 *
 *   gaia_serve --socket /tmp/gaia.sock --accel 1000 \
 *              --workload azure --jobs 600 --strategy spot-res
 *   # then: scripts/serve_client.py /tmp/gaia.sock trace.csv
 */

#include <iostream>
#include <new>
#include <vector>

#include "cli/options.h"
#include "cli/runner.h"
#include "common/obs.h"
#include "common/strings.h"
#include "serve/control.h"
#include "serve/daemon.h"

namespace {

/** Clean input error: one line on stderr, exit code 2. */
int
reportError(const gaia::Status &status)
{
    std::cerr << "gaia_serve: " << status.message() << "\n";
    return 2;
}

std::string
serveUsage()
{
    return "gaia_serve — stream jobs into the GAIA policy engine "
           "over a control socket\n\n"
           "Serving:\n"
           "  --socket PATH         AF_UNIX control socket path "
           "(default gaia_serve.sock)\n"
           "  --accel F             virtual seconds per wall second; "
           "0 = unpaced (default 1000)\n"
           "  --queue-capacity N    submission-queue slots before "
           "backpressure (default 65536)\n\n"
           "Control protocol (one command per line):\n"
           "  submit <id> <submit> <length> <cpus> -> ok | err "
           "<message>\n"
           "  stats                                -> one-line "
           "JSON\n"
           "  drain                                -> drained "
           "<fingerprint-hex>\n"
           "  quit                                 -> close "
           "connection\n\n"
           "The scenario is described by the gaia_run flags "
           "(workload, region,\npolicy, cluster...); they follow "
           "below. --verbose prints the metrics\ntable after the "
           "drain. --export-workload, --output-dir and "
           "--print-fingerprint\napply to gaia_run only.\n\n";
}

int
run(int argc, char **argv)
{
    using namespace gaia;
    using namespace gaia::serve;

    // Peel off the serve-specific flags; everything else is the
    // scenario description and goes through the gaia_run parser.
    std::string socket_path = "gaia_serve.sock";
    double accel = 1000.0;
    std::size_t queue_capacity = 1 << 16;

    std::vector<std::string> scenario_args;
    const std::vector<std::string> args = expandEqualsArgs(
        std::vector<std::string>(argv + 1, argv + argc));
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        // A daemon writes no batch artifacts.
        if (arg == "--export-workload" || arg == "--output-dir" ||
            arg == "--print-fingerprint")
            return reportError(Status::invalidArgument(
                arg, " applies to gaia_run only"));
        const bool serve_flag = arg == "--socket" || arg == "--accel" ||
                                arg == "--queue-capacity";
        if (serve_flag && i + 1 == args.size())
            return reportError(
                Status::invalidArgument("missing value for ", arg));
        if (arg == "--socket") {
            socket_path = args[++i];
        } else if (arg == "--accel") {
            const Result<double> v =
                tryParseDouble(args[++i], "--accel");
            if (!v.isOk())
                return reportError(v.status());
            accel = *v;
        } else if (arg == "--queue-capacity") {
            const Result<std::int64_t> v =
                tryParseInt(args[++i], "--queue-capacity");
            if (!v.isOk())
                return reportError(v.status());
            if (*v <= 0)
                return reportError(Status::invalidArgument(
                    "--queue-capacity must be positive"));
            queue_capacity = static_cast<std::size_t>(*v);
        } else {
            scenario_args.push_back(arg);
        }
    }

    CliOptions options;
    const Result<CliAction> action =
        parseCliOptions(scenario_args, options);
    if (!action.isOk())
        return reportError(action.status());
    if (*action == CliAction::ShowHelp) {
        std::cout << serveUsage() << cliUsage();
        return 0;
    }
    if (*action == CliAction::ListPolicies) {
        std::cout << policyListing();
        return 0;
    }

    obs::startSinks(options.metrics_out, options.trace_out,
                    options.verbose);

    ServeConfig config;
    const Result<ScenarioSpec> spec = scenarioFromOptions(options);
    if (!spec.isOk())
        return reportError(spec.status());
    config.scenario = *spec;
    config.accel = accel;
    config.queue_capacity = queue_capacity;

    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    if (!daemon.isOk())
        return reportError(daemon.status());

    // Announced (and flushed) before the blocking accept loop so
    // scripts can wait for readiness by watching stdout.
    std::cout << "gaia_serve: listening on " << socket_path
              << " (accel " << accel << "x, queue "
              << (*daemon)->stats().queue_capacity << " slots, "
              << (*daemon)->calibrationTrace().jobCount()
              << "-job calibration trace)" << std::endl;

    ControlServer server(**daemon, socket_path);
    Result<SimulationResult> run = server.run();
    if (run.isOk()) {
        std::cout << "gaia_serve: drained " << run->outcomes.size()
                  << " jobs, carbon " << run->carbon_kg
                  << " kg, fingerprint "
                  << fingerprintHex(resultFingerprint(*run)) << "\n";
    }

    const bool sinks_ok =
        obs::writeSinks(options.metrics_out, options.trace_out,
                        options.verbose, std::cout);
    if (!run.isOk())
        return reportError(run.status());
    if (!sinks_ok)
        return reportError(Status::invalidArgument(
            "failed to write observability sink(s)"));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Sizes the parser accepts (--jobs up to 2^32 - 1) can still ask
    // for more memory than the process may have. That is the input's
    // fault, so it ends like any other input error, not in an abort.
    try {
        return run(argc, argv);
    } catch (const std::bad_alloc &) {
        std::cerr << "gaia_serve: out of memory: the scenario needs more "
                     "memory than this process may use\n";
        return 2;
    }
}
