#include "common/time.h"

#include <array>
#include <sstream>

#include "common/logging.h"

namespace gaia {

namespace {

constexpr std::array<int, 12> kMonthDays = {
    31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};

constexpr std::array<const char *, 12> kMonthNames = {
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

} // namespace

Result<Seconds>
tryDuration(double value, Seconds unit, const std::string &what)
{
    // Written so NaN fails the first check.
    GAIA_REQUIRE(value >= 0.0, what, " must be non-negative, got ",
                 value);
    GAIA_REQUIRE(value <= static_cast<double>(kMaxInputDuration / unit),
                 what, " must be at most ",
                 kMaxInputDuration / kSecondsPerDay, " days, got ",
                 value);
    return static_cast<Seconds>(value * static_cast<double>(unit));
}

Seconds
nextSlotBoundary(Seconds t)
{
    GAIA_ASSERT(t >= 0, "negative simulation time ", t);
    return ((t + kSecondsPerHour - 1) / kSecondsPerHour) *
           kSecondsPerHour;
}

int
hourOfDay(Seconds t)
{
    return static_cast<int>((t / kSecondsPerHour) % 24);
}

std::int64_t
dayOf(Seconds t)
{
    GAIA_ASSERT(t >= 0, "negative simulation time ", t);
    return t / kSecondsPerDay;
}

int
monthOf(Seconds t)
{
    std::int64_t day = dayOf(t) % kDaysPerYear;
    for (int m = 0; m < 12; ++m) {
        if (day < kMonthDays[m])
            return m;
        day -= kMonthDays[m];
    }
    panic("day-of-year arithmetic overflow for t=", t);
}

std::string
monthName(int month)
{
    GAIA_ASSERT(month >= 0 && month < 12, "bad month index ", month);
    return kMonthNames[static_cast<std::size_t>(month)];
}

std::string
formatDuration(Seconds s)
{
    const bool negative = s < 0;
    if (negative)
        s = -s;

    const Seconds d = s / kSecondsPerDay;
    const Seconds h = (s % kSecondsPerDay) / kSecondsPerHour;
    const Seconds m = (s % kSecondsPerHour) / kSecondsPerMinute;
    const Seconds sec = s % kSecondsPerMinute;

    std::ostringstream oss;
    if (negative)
        oss << "-";
    if (d > 0)
        oss << d << "d ";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%02lldh %02lldm %02llds",
                  static_cast<long long>(h), static_cast<long long>(m),
                  static_cast<long long>(sec));
    oss << buf;
    return oss.str();
}

} // namespace gaia
