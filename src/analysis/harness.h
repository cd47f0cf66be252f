/**
 * @file
 * Conveniences shared by the figure-reproduction benches and the
 * example applications: calibrated queue setup, one-call policy
 * runs, and ASCII sparklines for time-series output.
 */

#ifndef GAIA_ANALYSIS_HARNESS_H
#define GAIA_ANALYSIS_HARNESS_H

#include <string>
#include <vector>

#include "core/cis.h"
#include "core/queues.h"
#include "sim/simulator.h"
#include "workload/job.h"

namespace gaia {

/**
 * The paper's standard two-queue configuration with J_avg
 * calibrated on `trace` (the "historical queue-wide average").
 */
QueueConfig calibratedQueues(
    const JobTrace &trace,
    Seconds short_wait = 6 * kSecondsPerHour,
    Seconds long_wait = 24 * kSecondsPerHour);

/**
 * Run `policy` against the given scenario through simulateChecked()
 * and return the result; dies with the Status message on an invalid
 * setup, since the callers' inputs are code, not user input.
 */
SimulationResult
runPolicy(const SchedulingPolicy &policy, const JobTrace &trace,
          const QueueConfig &queues, const CarbonInfoSource &cis,
          const ClusterConfig &cluster = {},
          ResourceStrategy strategy = ResourceStrategy::OnDemandOnly);

/** runPolicy() on the policy makePolicy() builds from a name. */
SimulationResult
runPolicy(const std::string &policy_name, const JobTrace &trace,
          const QueueConfig &queues, const CarbonInfoSource &cis,
          const ClusterConfig &cluster = {},
          ResourceStrategy strategy = ResourceStrategy::OnDemandOnly);

/**
 * Render a numeric series as a one-line unicode sparkline (8
 * levels), for quick shape checks in bench output.
 */
std::string sparkline(const std::vector<double> &values,
                      std::size_t width = 72);

/** Downsample a series to `width` points by averaging buckets. */
std::vector<double> downsample(const std::vector<double> &values,
                               std::size_t width);

} // namespace gaia

#endif // GAIA_ANALYSIS_HARNESS_H
