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
    if (RunSegment *last = lastSegment()) {
        GAIA_ASSERT(start >= last->end, "segment [", start, ", ", end,
                    ") overlaps the plan's end at ", last->end);
        if (start == last->end && width == last->width) {
            last->end = end;
            return;
        }
    }
    // The first segment stays inline; a second moves both into a
    // vector, which later ones join.
    const RunSegment next{start, end, width};
    auto *several = std::get_if<std::vector<RunSegment>>(&segments_);
    if (several == nullptr)
        segments_ = std::vector<RunSegment>{
            *std::get_if<RunSegment>(&segments_), next};
    else if (several->empty())
        segments_ = next;
    else
        several->push_back(next);
}

RunSegment *
SchedulePlan::lastSegment()
{
    if (RunSegment *one = std::get_if<RunSegment>(&segments_))
        return one;
    auto &several = *std::get_if<std::vector<RunSegment>>(&segments_);
    return several.empty() ? nullptr : &several.back();
}

Seconds
SchedulePlan::totalRunTime() const
{
    Seconds total = 0;
    for (const RunSegment &s : segments())
        total += s.duration();
    return total;
}

int
SchedulePlan::maxWidth() const
{
    int width = 1;
    for (const RunSegment &s : segments())
        width = std::max(width, s.width);
    return width;
}

std::string
SchedulePlan::toString() const
{
    std::ostringstream oss;
    const char *separator = "";
    for (const RunSegment &s : segments()) {
        oss << separator << "[" << s.start << ", " << s.end << ")";
        if (s.width != 1)
            oss << "x" << s.width;
        separator = " + ";
    }
    return oss.str();
}

} // namespace gaia
