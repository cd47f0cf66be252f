/**
 * @file
 * gaia_run execution: translate the parsed options into a
 * ScenarioSpec, run it through the scenario engine, and emit the
 * artifact's three result files —
 *
 *   aggregate.csv   one row of cluster-level totals,
 *   details.csv     one row per job (timing, carbon, cost),
 *   allocation.csv  hourly cores in use per purchase option.
 */

#ifndef GAIA_CLI_RUNNER_H
#define GAIA_CLI_RUNNER_H

#include <string>

#include "analysis/scenario.h"
#include "cli/options.h"
#include "common/status.h"
#include "sim/results.h"

namespace gaia {

/** Paths of the files one run produced. */
struct RunArtifacts
{
    std::string aggregate_csv;
    std::string details_csv;
    std::string allocation_csv;
};

/**
 * Translate options into the declarative scenario they describe.
 * Unknown names (workload, region) and inconsistent combinations
 * surface as an error Status.
 */
Result<ScenarioSpec> scenarioFromOptions(const CliOptions &options);

/**
 * Execute one gaia_run invocation: build the scenario, write its
 * realized job trace to options.export_workload when that is set,
 * simulate it, write the three CSVs into options.output_dir, and
 * return the result for further inspection. Bad input (missing file,
 * malformed CSV, unknown name, an output path that cannot be
 * written) yields an error Status instead of exiting.
 */
Result<SimulationResult>
runFromOptions(const CliOptions &options,
               RunArtifacts *artifacts = nullptr);

/**
 * Write the three artifact CSVs for an existing result, creating
 * `output_dir` if needed. A directory that cannot be created or a
 * file that cannot be opened is an error Status.
 */
Result<RunArtifacts> writeRunArtifacts(const SimulationResult &result,
                                       const std::string &output_dir);

} // namespace gaia

#endif // GAIA_CLI_RUNNER_H
