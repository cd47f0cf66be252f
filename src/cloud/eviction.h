/**
 * @file
 * Spot-instance eviction model.
 *
 * The paper models spot revocation as a per-hour eviction rate — the
 * probability that a running spot customer is evicted within a given
 * hour (0–15% in the evaluation). GAIA samples the eviction instant
 * from the implied geometric distribution over hours, uniformly
 * placed within the fatal hour, so the hazard is constant and the
 * expected lifetime matches the configured rate.
 */

#ifndef GAIA_CLOUD_EVICTION_H
#define GAIA_CLOUD_EVICTION_H

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"

namespace gaia {

/** Constant-hazard spot eviction process. */
class EvictionModel
{
  public:
    /** @param hourly_rate probability of eviction per running hour,
     *         in [0, 1] (asserted — untrusted rates go through
     *         make()). Zero disables evictions entirely. */
    explicit EvictionModel(double hourly_rate = 0.0);

    /** Validating factory for untrusted rates. */
    static Result<EvictionModel> make(double hourly_rate);

    /**
     * Sample the offset (seconds after the spot run begins) at which
     * the instance is evicted, or -1 if it survives `duration`.
     */
    Seconds sampleEvictionOffset(Rng &rng, Seconds duration) const;

    /** Probability of surviving a run of `duration`. */
    double survivalProbability(Seconds duration) const;

  private:
    double rate_;
};

} // namespace gaia

#endif // GAIA_CLOUD_EVICTION_H
