/**
 * @file
 * Hourly grid carbon-intensity series.
 *
 * A CarbonTrace stores grid carbon intensity in g·CO2eq/kWh at hourly
 * resolution, piecewise-constant within each hour, starting at
 * simulation time 0. It is the single source of truth consumed by
 * both the Carbon Information Service (scheduling decisions) and the
 * accounting layer (emission attribution), mirroring the paper's use
 * of ElectricityMaps hourly data.
 */

#ifndef GAIA_TRACE_CARBON_TRACE_H
#define GAIA_TRACE_CARBON_TRACE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/time.h"

namespace gaia {

/** Largest intensity a trace accepts, in g·CO2eq/kWh: about 100x the
 *  dirtiest grid's, and low enough that forecasts distorted by noise
 *  and spike faults, and integrals over them, stay finite. */
constexpr double kMaxCarbonIntensity = 100000.0;

/**
 * Piecewise-constant hourly carbon-intensity series in g·CO2eq/kWh.
 *
 * Queries beyond the end of the trace clamp to the final hour's
 * value; generators add enough margin that this only matters as a
 * safety net for jobs completing slightly past the horizon.
 *
 * A trace is an immutable value: the constructor builds its region,
 * hourly values and fast-path tables once, behind one shared
 * pointer, so a copy shares them and costs one reference-count
 * bump. That lets every SimulationResult carry the trace it was
 * accounted against and outlive the run that made it.
 */
class CarbonTrace
{
  public:
    /** An empty trace: it has no tables, and every query on it
     *  asserts. Only a default SimulationResult holds one. */
    CarbonTrace() = default;

    /**
     * Build from hourly values; all must be non-negative and
     * finite. The constructor asserts validity — untrusted data
     * (CSV loads, user-assembled series) must go through make().
     */
    CarbonTrace(std::string region, std::vector<double> hourly);

    /** Validating factory for untrusted hourly values. */
    static Result<CarbonTrace> make(std::string region,
                                    std::vector<double> hourly);

    const std::string &region() const { return tables().region; }
    std::size_t slotCount() const { return tables().values.size(); }
    Seconds duration() const
    {
        return static_cast<Seconds>(slotCount()) * kSecondsPerHour;
    }

    /** Intensity of hourly slot `slot` (clamped to the trace). */
    double atSlot(SlotIndex slot) const
    {
        const std::vector<double> &values = tables().values;
        return values[clampSlot(slot, values.size())];
    }

    /** Intensity at instant `t`. */
    double at(Seconds t) const;

    /**
     * Time integral of intensity over [from, to), in
     * (g·CO2eq/kWh)·seconds. Multiply by power draw in kW and divide
     * by 3600 to obtain grams. `from <= to` required.
     */
    double integrate(Seconds from, Seconds to) const;

    /**
     * Grams of CO2eq emitted by a load drawing `kilowatts` over
     * [from, to).
     */
    double gramsFor(Seconds from, Seconds to, double kilowatts) const;

    /**
     * Slot with the minimum intensity in [from, to) (first such slot
     * on ties). Requires a non-empty overlap with [0, duration).
     */
    SlotIndex minSlotIn(Seconds from, Seconds to) const;

    /** The p-th percentile of intensity over slots in [from, to). */
    double percentileOver(Seconds from, Seconds to, double p) const;

    /** Mean intensity over slots in [from, to). */
    double meanOver(Seconds from, Seconds to) const;

    /** Hourly values (read-only; shared by every copy). */
    const std::vector<double> &values() const { return tables().values; }

    /** A copy truncated/extended (by repetition) to `slots` hours. */
    CarbonTrace resized(std::size_t slots) const;

    /** Serialize to CSV (columns: hour, carbon_intensity); an error
     *  when `path` cannot be opened for writing. */
    Status toCsv(const std::string &path) const;

    /** Load from CSV produced by toCsv() (or ElectricityMaps dumps
     *  reduced to the same two columns). The `hour` column is
     *  optional; when present, row k must read hour k, so a
     *  shuffled, gapped or offset file is an error rather than
     *  intensities in the wrong slots. */
    static Result<CarbonTrace> fromCsv(const std::string &path,
                                       const std::string &region);

  private:
    /**
     * Everything a trace holds. Built once by the constructor and
     * never changed, so copies share it. Besides the values it
     * precomputes the compensated per-hour prefix sums and the
     * sparse-table argmin index, so integrate() and minSlotIn() run
     * in O(1) instead of O(window hours).
     */
    struct Tables
    {
        Tables(std::string region, std::vector<double> hourly);

        /**
         * prefix[j] − prefix[i] (j ≥ i) evaluated in double-double
         * arithmetic and rounded once: the sum of the full-hour terms
         * fl(values[s] · 3600) for s in [i, j), exact to well below
         * one ulp. Equal-length windows over identical value runs
         * therefore compare exactly equal, preserving the first-win
         * tie-breaks of the replaced per-hour loop.
         */
        double fullHourSum(std::size_t i, std::size_t j) const;

        /** Leftmost index of the strictly smallest value in [l, r]. */
        std::size_t argminInRange(std::size_t l, std::size_t r) const;

        std::string region;
        std::vector<double> values;
        /** Compensated prefix sums of fl(values[i] · 3600), size
         *  n+1. */
        std::vector<double> prefix_hi;
        std::vector<double> prefix_lo;
        /** Sparse-table RMQ over values, leftmost-min on ties. */
        std::vector<std::vector<std::uint32_t>> rmq;
    };

    /** OK when every value is a finite non-negative intensity. */
    static Status validateValues(const std::string &region,
                                 const std::vector<double> &hourly);

    /** The shared tables; asserts the trace is not empty. */
    const Tables &tables() const
    {
        GAIA_ASSERT(tables_ != nullptr, "query on an empty CarbonTrace");
        return *tables_;
    }

    /** Clamp a slot index into [0, slots). */
    static std::size_t clampSlot(SlotIndex slot, std::size_t slots)
    {
        if (slot < 0)
            return 0;
        const auto idx = static_cast<std::size_t>(slot);
        return idx >= slots ? slots - 1 : idx;
    }

    std::shared_ptr<const Tables> tables_;
};

} // namespace gaia

#endif // GAIA_TRACE_CARBON_TRACE_H
