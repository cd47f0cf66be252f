#include "core/schedule.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace gaia {

SchedulePlan::SchedulePlan(Seconds start, Seconds length)
{
    append(start, start + length);
}

void
SchedulePlan::append(Seconds start, Seconds end, int width)
{
    GAIA_ASSERT(start >= 0, "segment starts before t=0");
    GAIA_ASSERT(end > start, "empty or inverted segment [", start,
                ", ", end, ")");
    GAIA_ASSERT(width >= 1, "segment width ", width, " below 1");
    if (!segments_.empty()) {
        RunSegment &last = segments_.back();
        GAIA_ASSERT(start >= last.end, "segment [", start, ", ", end,
                    ") overlaps the plan's end at ", last.end);
        if (start == last.end && width == last.width) {
            last.end = end;
            return;
        }
    }
    segments_.push_back({start, end, width});
}

Seconds
SchedulePlan::totalRunTime() const
{
    Seconds total = 0;
    for (const RunSegment &s : segments_)
        total += s.duration();
    return total;
}

int
SchedulePlan::maxWidth() const
{
    int width = 1;
    for (const RunSegment &s : segments_)
        width = std::max(width, s.width);
    return width;
}

std::string
SchedulePlan::toString() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        if (i > 0)
            oss << " + ";
        oss << "[" << segments_[i].start << ", " << segments_[i].end
            << ")";
        if (segments_[i].width != 1)
            oss << "x" << segments_[i].width;
    }
    return oss.str();
}

} // namespace gaia
