/**
 * @file
 * Fault-injecting CarbonInfoSource decorator.
 *
 * Wraps any inner source and distorts what the *scheduler* sees —
 * accounting stays on the ground-truth trace() of the inner source,
 * because a flaky forecast feed does not change what the grid
 * actually emitted. Four carbon-source fault kinds compose:
 *
 *  - Outage: availableAt() is false inside outage windows; the
 *    scheduler's degradation ladder (retry, then carbon-oblivious
 *    fallback) decides what to do. Queries still answer, like a
 *    cached client library would.
 *  - Stale: inside a stale window every query is answered with the
 *    feed frozen at the window start — the current-slot
 *    "measurement" too, which is exactly how a stuck upstream looks
 *    to a consumer.
 *  - Spike: future-slot forecasts are multiplied by spike_factor
 *    while `now` is in a burst (a corrupted forecast generation);
 *    the current slot stays measured.
 *  - Gap: missing trace slots answer with the most recent non-gap
 *    slot's value (last-observation-carried-forward).
 *
 * All distortions are pure functions of (spec seed, slot), so the
 * decorator is deterministic and stateless; it never memoizes
 * (slotInvariantForecasts() is false) because stale/spike answers
 * depend on the query instant.
 */

#ifndef GAIA_FAULT_FAULTY_SOURCE_H
#define GAIA_FAULT_FAULTY_SOURCE_H

#include "core/cis.h"
#include "fault/injector.h"

namespace gaia {

/** CarbonInfoSource decorator injecting source-side faults. */
class FaultyCarbonSource final : public CarbonInfoSource
{
  public:
    /** Both collaborators must outlive the decorator. */
    FaultyCarbonSource(const CarbonInfoSource &inner,
                       const FaultInjector &faults);

    /** Ground truth passes through untouched (accounting input). */
    const CarbonTrace &trace() const override
    {
        return inner_.trace();
    }

    bool availableAt(Seconds now) const override
    {
        return !faults_.outageAt(now);
    }

    /** Stale/spike answers depend on the query instant, which
     *  breaks the PlanCache contract — never memoize. */
    bool slotInvariantForecasts() const override { return false; }

    double intensityAt(Seconds t) const override;
    /** The inherited window queries (CarbonInfoSource's slot walk)
     *  read every slot through this, so each distortion reaches
     *  them. */
    double forecastAtSlot(Seconds now,
                          SlotIndex slot) const override;

  private:
    /** Inner answer for `slot` with gap slots carried forward. */
    double rawAtSlot(Seconds now, SlotIndex slot) const;

    const CarbonInfoSource &inner_;
    const FaultInjector &faults_;
};

} // namespace gaia

#endif // GAIA_FAULT_FAULTY_SOURCE_H
