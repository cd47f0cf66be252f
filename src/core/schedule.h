/**
 * @file
 * Execution plans produced by scheduling policies.
 *
 * A SchedulePlan is a sorted, non-overlapping list of execution
 * segments whose durations sum to the job's length. Start-time
 * policies emit one segment; suspend-resume policies (Wait Awhile,
 * Ecovisor) emit several, appended in time order. Placement
 * (reserved / on-demand / spot) is decided later by the simulator's
 * resource strategy — a plan only fixes *when* the job computes.
 */

#ifndef GAIA_CORE_SCHEDULE_H
#define GAIA_CORE_SCHEDULE_H

#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/logging.h"
#include "common/time.h"

namespace gaia {

/**
 * Half-open execution interval [start, end).
 *
 * `width` is the number of concurrent instances executing during the
 * segment; it is 1 for every fixed-width (paper) plan and only
 * differs for elastic jobs (see workload/elastic_profile.h), whose
 * plans step through widths as marginal capacity is allocated.
 */
struct RunSegment
{
    Seconds start = 0;
    Seconds end = 0;
    int width = 1;

    Seconds duration() const { return end - start; }
};

/** A policy's timing decision for one job. */
class SchedulePlan
{
  public:
    SchedulePlan() = default;

    /** Single-segment convenience constructor. */
    SchedulePlan(Seconds start, Seconds length);

    /**
     * Append [start, end) at `width` instances. The segment must be
     * non-empty, start at or after the plan's end and at or after
     * t=0, and have a width of at least 1. One that abuts an
     * equal-width last segment extends it; abutting segments of
     * different widths stay separate — an elastic job changing width
     * without pausing.
     */
    void append(Seconds start, Seconds end, int width = 1);

    bool empty() const { return segments().empty(); }
    std::size_t segmentCount() const { return segments().size(); }
    std::span<const RunSegment> segments() const
    {
        if (const RunSegment *one = std::get_if<RunSegment>(&segments_))
            return {one, 1};
        return *std::get_if<std::vector<RunSegment>>(&segments_);
    }
    const RunSegment &segment(std::size_t i) const
    {
        const std::span<const RunSegment> all = segments();
        GAIA_ASSERT(i < all.size(), "segment index out of range");
        return all[i];
    }

    /** When execution first begins. */
    Seconds plannedStart() const
    {
        const std::span<const RunSegment> all = segments();
        GAIA_ASSERT(!all.empty(), "plannedStart of empty plan");
        return all.front().start;
    }

    /** When execution finally completes. */
    Seconds plannedEnd() const
    {
        const std::span<const RunSegment> all = segments();
        GAIA_ASSERT(!all.empty(), "plannedEnd of empty plan");
        return all.back().end;
    }

    /** Total planned compute time across segments. */
    Seconds totalRunTime() const;

    /** Largest segment width (1 for every fixed-width plan). */
    int maxWidth() const;

    /** True for suspend-resume plans (more than one segment). */
    bool isSuspendResume() const { return segmentCount() > 1; }

    /** Debug rendering, e.g. "[100, 400) + [700, 800)". */
    std::string toString() const;

  private:
    /** The last segment, for append to extend; null if empty. */
    RunSegment *lastSegment();

    /** An empty plan is the empty vector. A one-segment plan, every
     *  start-time policy's, holds its segment inline, so planning
     *  such a job allocates nothing; a plan of several segments
     *  keeps them in the vector. */
    std::variant<std::vector<RunSegment>, RunSegment> segments_;
};

} // namespace gaia

#endif // GAIA_CORE_SCHEDULE_H
