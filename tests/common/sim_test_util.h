/**
 * @file
 * Shared test helper for running one simulation from parts.
 *
 * Assembles the setup from parts through SimulationSetup::Builder,
 * runs it with simulateChecked(), and dies with the Status message
 * on an invalid setup, which in a test is a bug in the test.
 */

#ifndef GAIA_TESTS_COMMON_SIM_TEST_UTIL_H
#define GAIA_TESTS_COMMON_SIM_TEST_UTIL_H

#include "common/logging.h"
#include "sim/simulator.h"

namespace gaia::testutil {

inline SimulationResult
runSim(const JobTrace &trace, const SchedulingPolicy &policy,
       const QueueConfig &queues, const CarbonInfoSource &cis,
       const ClusterConfig &cluster = {},
       ResourceStrategy strategy = ResourceStrategy::OnDemandOnly)
{
    const Result<SimulationSetup> setup =
        SimulationSetup::Builder()
            .trace(trace)
            .policy(policy)
            .queues(queues)
            .cis(cis)
            .cluster(cluster)
            .strategy(strategy)
            .build();
    GAIA_ASSERT(setup.isOk(), "test simulation setup is invalid: ",
                setup.status().message());
    Result<SimulationResult> result = simulateChecked(*setup);
    GAIA_ASSERT(result.isOk(), "test simulation failed: ",
                result.status().message());
    return std::move(result).value();
}

} // namespace gaia::testutil

#endif // GAIA_TESTS_COMMON_SIM_TEST_UTIL_H
