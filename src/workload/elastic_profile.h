/**
 * @file
 * Elastic-scaling profiles for batch jobs.
 *
 * The GAIA paper schedules jobs of fixed width; the authors'
 * follow-up systems — CarbonScaler and CarbonFlex — extend the same
 * machinery to jobs that scale *elastically*: a job may run on
 * between `min_instances` and maxInstances() instances at once, and
 * each additional instance contributes a (typically diminishing)
 * marginal throughput. An ElasticProfile captures that scaling curve
 * as plain data. It belongs to the run, not to a job: a run holds
 * exactly one (the scenario's `--elastic-profile`, handed to every
 * plan as PlanContext::elastic) and it applies to every job; no trace
 * format or job record carries one.
 *
 * Conventions:
 *   - Work is measured in seconds of single-instance execution, so
 *     a job's `length` field keeps its meaning: the profile only
 *     changes how fast the work can be retired, never how much work
 *     there is (work-conserving completion semantics).
 *   - marginal[k] is the extra work rate contributed by instance
 *     k+1, in units of the first instance's nominal rate; a valid
 *     profile therefore has marginal[0] == 1, so a width-1 run of
 *     `length` seconds delivers exactly `length` work.
 *   - An empty marginal vector means "not elastic": every job is the
 *     paper's fixed single-width job and every policy treats it
 *     exactly as before. The elastic machinery is fully opt-in.
 */

#ifndef GAIA_WORKLOAD_ELASTIC_PROFILE_H
#define GAIA_WORKLOAD_ELASTIC_PROFILE_H

#include <string>
#include <vector>

#include "common/status.h"

namespace gaia {

/** Most instances an elastic profile may run at once. */
constexpr int kMaxElasticInstances = 64;

/** Marginal-throughput scaling curve of a run's elastic jobs. */
struct ElasticProfile
{
    /** Smallest admissible width while the job is running. */
    int min_instances = 1;

    /**
     * marginal[k] = extra work rate of instance k+1 relative to the
     * single-instance rate; empty = fixed (non-elastic) jobs.
     */
    std::vector<double> marginal;

    /** True when a job can actually change width. */
    bool enabled() const
    {
        return marginal.size() > 1 ||
               (marginal.size() == 1 && min_instances > 1);
    }

    /** Largest admissible width (1 for a fixed job). */
    int maxInstances() const
    {
        return marginal.empty()
                   ? 1
                   : static_cast<int>(marginal.size());
    }

    /** Aggregate work rate when running on `instances` instances. */
    double throughputAt(int instances) const;

    /** Work rate at maxInstances() — the fastest the job can go. */
    double maxThroughput() const
    {
        return throughputAt(maxInstances());
    }

    /**
     * True when marginal rates are non-increasing — the scaling
     * regime where the CarbonScaler greedy allocator is provably
     * optimal (fixed jobs count as concave).
     */
    bool concave() const;

    /** Input validation for a profile built outside
     *  parseElasticProfile() (which already applies it). */
    Status validate() const;

    /** Canonical content key; disabled profiles key to "off". */
    std::string key() const;
};

/**
 * Parse the CLI grammar for elastic profiles:
 *
 *   off                              no elasticity (default)
 *   linear:max=K[,min=M]             K instances, perfect scaling
 *   diminishing:max=K,alpha=A[,min=M]  marginal[k] = A^k
 *   list:rates=R0+R1+...[,min=M]     explicit marginal rates
 *
 * Errors (rather than asserting) on malformed input; the parsed
 * profile is already validate()d.
 */
Result<ElasticProfile> parseElasticProfile(const std::string &text);

} // namespace gaia

#endif // GAIA_WORKLOAD_ELASTIC_PROFILE_H
