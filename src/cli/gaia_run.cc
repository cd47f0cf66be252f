/**
 * @file
 * gaia_run — the GAIA command-line driver, mirroring the original
 * artifact's run.py: pick a workload, a region, a policy, and a
 * cluster configuration; get aggregate/details/allocation CSVs.
 *
 * Examples (artifact appendix A.5):
 *
 *   # carbon- and cost-agnostic execution
 *   gaia_run --policy NoWait -w 0x0
 *
 *   # lowest carbon window with 6h/24h waiting limits
 *   gaia_run --policy Lowest-Window -w 6x24
 *
 *   # hybrid cluster: work-conserving Carbon-Time on 18 reserved
 *   gaia_run --policy Carbon-Time --strategy res-first --reserved 18
 */

#include <iostream>
#include <new>
#include <vector>

#include "cli/options.h"
#include "cli/runner.h"
#include "common/obs.h"
#include "common/strings.h"
#include "common/table.h"

namespace {

/** Clean input error: one line on stderr, exit code 2. */
int
reportError(const gaia::Status &status)
{
    std::cerr << "gaia_run: " << status.message() << "\n";
    return 2;
}

/** The run's summary table, then its fingerprint when asked for. */
void
printSummary(const gaia::SimulationResult &result, bool print_fingerprint)
{
    using namespace gaia;

    TextTable summary("gaia_run summary",
                      {"field", "value"});
    summary.addRow({"policy", result.policy});
    summary.addRow({"strategy", result.strategy});
    summary.addRow({"workload", result.workload});
    summary.addRow({"region", result.region});
    summary.addRow({"jobs",
                    std::to_string(result.outcomes.size())});
    summary.addRow({"carbon (kg CO2eq)",
                    fmt(result.carbon_kg, 3)});
    summary.addRow({"carbon if run immediately (kg)",
                    fmt(result.carbon_nowait_kg, 3)});
    summary.addRow({"total cost ($)", fmt(result.totalCost(), 2)});
    summary.addRow({"  reserved upfront ($)",
                    fmt(result.reserved_upfront, 2)});
    summary.addRow({"  on-demand ($)",
                    fmt(result.on_demand_cost, 2)});
    summary.addRow({"  spot ($)", fmt(result.spot_cost, 2)});
    summary.addRow({"mean waiting (h)",
                    fmt(result.meanWaitingHours(), 2)});
    summary.addRow({"p95 waiting (h)",
                    fmt(result.p95WaitingHours(), 2)});
    summary.addRow({"reserved utilization",
                    fmt(result.reserved_utilization, 3)});
    summary.addRow({"spot evictions",
                    std::to_string(result.eviction_count)});
    summary.print(std::cout);

    if (print_fingerprint)
        std::cout << "fingerprint "
                  << fingerprintHex(resultFingerprint(result)) << "\n";
}

int
run(int argc, char **argv)
{
    using namespace gaia;

    std::vector<std::string> args(argv + 1, argv + argc);
    CliOptions options;
    const Result<CliAction> action = parseCliOptions(args, options);
    if (!action.isOk())
        return reportError(action.status());
    if (*action == CliAction::ShowHelp) {
        std::cout << cliUsage();
        return 0;
    }
    if (*action == CliAction::ListPolicies) {
        std::cout << policyListing();
        return 0;
    }

    // Tracing and the clock-heavy instrumentation points only run
    // when a sink asked for them.
    obs::startSinks(options.metrics_out, options.trace_out,
                    options.verbose);

    RunArtifacts artifacts;
    Result<SimulationResult> run =
        runFromOptions(options, &artifacts);
    if (run.isOk())
        printSummary(*run, options.print_fingerprint);

    // Sinks are written even when the run failed — a partial trace
    // is exactly what you want while diagnosing the failure.
    const bool sinks_ok =
        obs::writeSinks(options.metrics_out, options.trace_out,
                        options.verbose, std::cout);
    if (!run.isOk())
        return reportError(run.status());
    if (!sinks_ok)
        return reportError(Status::invalidArgument(
            "failed to write observability sink(s)"));

    std::cout << "\nWrote " << artifacts.aggregate_csv << ", "
              << artifacts.details_csv << ", "
              << artifacts.allocation_csv;
    if (!options.metrics_out.empty())
        std::cout << ", " << options.metrics_out;
    if (!options.trace_out.empty())
        std::cout << ", " << options.trace_out;
    std::cout << "\n";
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
        std::cerr << "gaia_run: out of memory: the scenario needs more "
                     "memory than this process may use\n";
        return 2;
    }
}
