/**
 * @file
 * Carbon Information Service (CIS).
 *
 * GAIA's policies never touch raw traces: they consult a CIS — the
 * stand-in for third-party services such as ElectricityMaps — for
 * the current carbon intensity and for forecasts over the scheduling
 * window. The paper assumes perfect forecasts (citing their high
 * accuracy); the CIS therefore defaults to returning trace truth,
 * but supports a configurable multiplicative forecast error so the
 * sensitivity can be studied (see the forecast-noise ablation
 * bench). Accounting always uses the true trace.
 */

#ifndef GAIA_CORE_CIS_H
#define GAIA_CORE_CIS_H

#include <cstdint>

#include "common/time.h"
#include "trace/carbon_trace.h"
#include "trace/forecast.h"

namespace gaia {

/**
 * Abstract carbon-information source.
 *
 * Policies and the scheduler consult this interface — never a
 * concrete trace — for the current carbon intensity and forecasts
 * over the scheduling window. CarbonInfoService is the ground-truth
 * implementation; decorators (e.g. fault::FaultyCarbonSource) wrap a
 * source to inject degraded behaviour without touching policy code.
 *
 * `trace()` must always return the ground-truth trace: it is the
 * accounting input, and a decorator may only distort what the
 * *scheduler* believes, never what the atmosphere receives.
 */
class CarbonInfoSource
{
  public:
    virtual ~CarbonInfoSource() = default;

    /** Ground-truth trace (accounting input; never distorted). */
    virtual const CarbonTrace &trace() const = 0;

    /**
     * Whether the source can answer queries at instant `now`. A
     * plain service is always up; a decorator may report outages,
     * which the scheduler handles with retry/degradation (see
     * sim/online.cc). Querying an unavailable source still returns
     * values — availability is advisory, like a failed health
     * check before an RPC.
     */
    virtual bool availableAt(Seconds now) const
    {
        (void)now;
        return true;
    }

    /**
     * True when forecasts for slots strictly after slotOf(now) do
     * not depend on the exact query instant within `now`'s slot —
     * the contract PlanCache memoization relies on (see
     * core/plan_cache.h). Defaults to false: opting out of
     * memoization is always safe.
     */
    virtual bool slotInvariantForecasts() const { return false; }

    /** Measured intensity at instant `t`. */
    virtual double intensityAt(Seconds t) const = 0;

    /** Forecast intensity of hourly slot `slot` as seen at `now`. */
    virtual double forecastAtSlot(Seconds now,
                                  SlotIndex slot) const = 0;

    /*
     * Window queries. Each defaults to a walk over forecastAtSlot(),
     * slot by slot, so a source that only distorts per-slot answers
     * (a fault decorator) gets all three for free. A source with a
     * faster exact answer overrides them.
     */

    /**
     * Forecast of the intensity-time integral over [from, to) as
     * seen from `now`, in (g/kWh)·seconds.
     */
    virtual double forecastIntegrate(Seconds now, Seconds from,
                                     Seconds to) const;

    /**
     * Forecast slot with minimum intensity within [from, to), ties
     * broken toward the earliest slot.
     */
    virtual SlotIndex forecastMinSlot(Seconds now, Seconds from,
                                      Seconds to) const;

    /**
     * Forecast p-th percentile of slot intensities over [from, to)
     * (Ecovisor's threshold input).
     */
    virtual double forecastPercentile(Seconds now, Seconds from,
                                      Seconds to, double p) const;
};

/** Largest forecast-noise sigma a scenario accepts; a noise factor
 *  stays below 1 + 1.73·sigma, so forecasts stay finite. */
constexpr double kMaxForecastNoise = 100.0;

/**
 * Forecast-capable view over a carbon trace — the ground-truth
 * CarbonInfoSource implementation.
 *
 * Forecast noise is deterministic per (slot, seed): repeated queries
 * of the same future slot return the same perturbed value, like a
 * real forecast product would within one forecast generation. The
 * slot containing "now" is always exact (it is a measurement, not a
 * forecast).
 */
class CarbonInfoService final : public CarbonInfoSource
{
  public:
    /**
     * @param trace          ground-truth hourly intensity
     * @param forecast_noise stddev of multiplicative forecast error
     *                       (0 = perfect forecasts, the default)
     * @param seed           noise stream selector
     */
    explicit CarbonInfoService(const CarbonTrace &trace,
                               double forecast_noise = 0.0,
                               std::uint64_t seed = 0);

    /**
     * Model-backed CIS: future slots are answered by `forecaster`
     * (e.g. PersistenceForecaster) while the current slot stays
     * measured and accounting stays on the true trace. The
     * forecaster must outlive this service.
     */
    CarbonInfoService(const CarbonTrace &trace,
                      const CarbonForecaster &forecaster);

    const CarbonTrace &trace() const override { return trace_; }

    /**
     * Trace truth and per-slot hashed noise are pure functions of
     * the slot; only a forecast *model* may condition on the query
     * instant itself.
     */
    bool slotInvariantForecasts() const override
    {
        return forecaster_ == nullptr;
    }

    /** Measured intensity at instant `t` (always exact). */
    double intensityAt(Seconds t) const override;

    /** Forecast intensity of hourly slot `slot` as seen at `now`. */
    double forecastAtSlot(Seconds now,
                          SlotIndex slot) const override;

    /*
     * With perfect forecasts every slot reads trace truth, so the
     * trace answers each window query from its own tables: the
     * walk's argmin and percentile, and the integral with
     * compensated summation. Otherwise they take the walk.
     */
    double forecastIntegrate(Seconds now, Seconds from,
                             Seconds to) const override;
    SlotIndex forecastMinSlot(Seconds now, Seconds from,
                              Seconds to) const override;
    double forecastPercentile(Seconds now, Seconds from, Seconds to,
                              double p) const override;

  private:
    /** Perfect forecasts: the trace answers every query. */
    bool oracle() const
    {
        return noise_ <= 0.0 && forecaster_ == nullptr;
    }

    /** Deterministic multiplicative error factor for `slot`. */
    double noiseFactor(SlotIndex slot) const;

    const CarbonTrace &trace_;
    double noise_;
    std::uint64_t seed_;
    const CarbonForecaster *forecaster_ = nullptr;
};

} // namespace gaia

#endif // GAIA_CORE_CIS_H
