/**
 * @file
 * Simulation time primitives.
 *
 * GAIA measures simulation time in integer seconds from the start of
 * the input traces (t = 0). Carbon-intensity traces are hourly, so
 * most scheduling math happens on hour slots; jobs, however, arrive
 * and run with second resolution.
 *
 * A simulated year is modelled as 365 days. Calendar helpers
 * (month-of-year, hour-of-day) are derived from that convention and
 * exist for reporting (e.g., monthly mean carbon intensity) rather
 * than for any wall-clock correspondence.
 */

#ifndef GAIA_COMMON_TIME_H
#define GAIA_COMMON_TIME_H

#include <cstdint>
#include <string>

#include "common/status.h"

namespace gaia {

/** Simulation time / durations, in seconds. */
using Seconds = std::int64_t;

/** Index of an hourly slot in a carbon-intensity trace. */
using SlotIndex = std::int64_t;

constexpr Seconds kSecondsPerMinute = 60;
constexpr Seconds kSecondsPerHour = 3600;
constexpr Seconds kSecondsPerDay = 24 * kSecondsPerHour;
constexpr Seconds kSecondsPerWeek = 7 * kSecondsPerDay;
constexpr Seconds kDaysPerYear = 365;
constexpr Seconds kSecondsPerYear = kDaysPerYear * kSecondsPerDay;
constexpr Seconds kHoursPerYear = kDaysPerYear * 24;

/** Convenience literal-style constructors. */
constexpr Seconds
minutes(double m)
{
    return static_cast<Seconds>(m * kSecondsPerMinute);
}

constexpr Seconds
hours(double h)
{
    return static_cast<Seconds>(h * kSecondsPerHour);
}

constexpr Seconds
days(double d)
{
    return static_cast<Seconds>(d * kSecondsPerDay);
}

/** Longest duration text input may name: a century, far past any
 *  trace the paper uses and far inside what Seconds can hold. */
constexpr Seconds kMaxInputDuration = 100 * kSecondsPerYear;

/**
 * Checked counterpart of minutes()/hours()/days() for a duration read
 * from text (CLI flags, grammar keys), where an unchecked cast of
 * 1e300 or inf is undefined behaviour: `value` counts units of `unit`
 * seconds (e.g. kSecondsPerHour). NaN, negative values and values
 * past kMaxInputDuration (infinities included) are an InvalidArgument
 * naming `what`; accepted values convert exactly as the unchecked
 * helpers do.
 */
Result<Seconds> tryDuration(double value, Seconds unit,
                            const std::string &what);

/** Convert a duration in seconds to fractional hours. */
constexpr double
toHours(Seconds s)
{
    return static_cast<double>(s) / kSecondsPerHour;
}

/** Hourly slot containing time `t` (floor; negative t unsupported). */
inline SlotIndex
slotOf(Seconds t)
{
    GAIA_ASSERT(t >= 0, "negative simulation time ", t);
    return t / kSecondsPerHour;
}

/** Start time of hourly slot `slot`. */
inline Seconds
slotStart(SlotIndex slot)
{
    return slot * kSecondsPerHour;
}

/** First slot boundary at or after `t`. */
Seconds nextSlotBoundary(Seconds t);

/** Hour of day in [0, 24) for time `t`. */
int hourOfDay(Seconds t);

/** Day index since trace start for time `t`. */
std::int64_t dayOf(Seconds t);

/**
 * Month of year in [0, 12) for time `t`, under a 365-day year with
 * standard (non-leap) month lengths.
 */
int monthOf(Seconds t);

/** Three-letter month name for month index in [0, 12). */
std::string monthName(int month);

/** Human-readable rendering, e.g. "2d 03h 15m 00s". */
std::string formatDuration(Seconds s);

} // namespace gaia

#endif // GAIA_COMMON_TIME_H
