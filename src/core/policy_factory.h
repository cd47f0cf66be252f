/**
 * @file
 * Policy construction by name and the Table 1 capability summary.
 */

#ifndef GAIA_CORE_POLICY_FACTORY_H
#define GAIA_CORE_POLICY_FACTORY_H

#include <string>
#include <vector>

#include "common/status.h"
#include "core/policy.h"

namespace gaia {

/**
 * Construct a policy by canonical name (case-insensitive): one of
 * allPolicyNames() — "NoWait", "AllWait-Threshold", "Wait-Awhile",
 * "Ecovisor", "Lowest-Slot", "Lowest-Window", "Carbon-Time" — or of
 * elasticPolicyNames(), "Elastic-NoWait" and "Carbon-Scaler".
 * fatal() on unknown names; user-supplied names go through
 * tryMakePolicy.
 */
PolicyPtr makePolicy(const std::string &name);

/**
 * Construct a policy by name, NotFound status (listing the known
 * names) when the name matches no policy.
 */
Result<PolicyPtr> tryMakePolicy(const std::string &name);

/**
 * Canonical names of the paper's policy set, Table 1 order. The
 * elastic family is deliberately excluded so Table 1 outputs stay
 * exactly the paper's; see elasticPolicyNames().
 */
std::vector<std::string> allPolicyNames();

/**
 * Canonical names of the elastic-scaling policy family
 * (CarbonScaler extension; see core/elastic.h).
 */
std::vector<std::string> elasticPolicyNames();

/** One row of the paper's Table 1. */
struct PolicyCapabilities
{
    std::string name;
    std::string job_length;  ///< "-", "J_avg", or "Yes" (exact)
    bool carbon_aware = false;
    bool performance_aware = false;
    bool suspend_resume = false;
};

/** Capability summary for `policy` (drives table1 bench). */
PolicyCapabilities describePolicy(const SchedulingPolicy &policy);

} // namespace gaia

#endif // GAIA_CORE_POLICY_FACTORY_H
