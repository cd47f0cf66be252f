/** @file Tests for schedule plans and their in-order appends. */

#include "core/schedule.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace gaia {
namespace {

TEST(SchedulePlan, SingleSegmentConvenience)
{
    const SchedulePlan plan(100, 50);
    EXPECT_EQ(plan.segmentCount(), 1u);
    EXPECT_EQ(plan.plannedStart(), 100);
    EXPECT_EQ(plan.plannedEnd(), 150);
    EXPECT_EQ(plan.totalRunTime(), 50);
    EXPECT_FALSE(plan.isSuspendResume());
}

TEST(SchedulePlan, MultiSegmentAccessors)
{
    SchedulePlan plan;
    plan.append(100, 200);
    plan.append(400, 450);
    EXPECT_EQ(plan.segmentCount(), 2u);
    EXPECT_TRUE(plan.isSuspendResume());
    EXPECT_EQ(plan.plannedStart(), 100);
    EXPECT_EQ(plan.plannedEnd(), 450);
    EXPECT_EQ(plan.totalRunTime(), 150);
    EXPECT_EQ(plan.segment(1).start, 400);
}

TEST(SchedulePlan, AppendMergesAbuttingSegmentsOfEqualWidth)
{
    SchedulePlan plan;
    // A chain of abutting unit-width segments is one segment.
    plan.append(0, 10);
    plan.append(10, 20);
    plan.append(20, 30);
    ASSERT_EQ(plan.segmentCount(), 1u);
    EXPECT_EQ(plan.segment(0).end, 30);

    // A width change that abuts stays separate (an elastic job
    // resizing without pausing), and so does a gap.
    plan.append(30, 40, 2);
    plan.append(40, 45, 2);
    plan.append(45, 50);
    plan.append(60, 70);
    ASSERT_EQ(plan.segmentCount(), 4u);
    EXPECT_EQ(plan.segment(0).start, 0);
    EXPECT_EQ(plan.segment(0).end, 30);
    EXPECT_EQ(plan.segment(1).start, 30);
    EXPECT_EQ(plan.segment(1).end, 45);
    EXPECT_EQ(plan.segment(1).width, 2);
    EXPECT_EQ(plan.segment(2).start, 45);
    EXPECT_EQ(plan.segment(2).end, 50);
    EXPECT_EQ(plan.segment(2).width, 1);
    EXPECT_EQ(plan.segment(3).start, 60);
    EXPECT_EQ(plan.totalRunTime(), 60);
    EXPECT_EQ(plan.maxWidth(), 2);
    EXPECT_EQ(plan.toString(),
              "[0, 30) + [30, 45)x2 + [45, 50) + [60, 70)");
}

TEST(SchedulePlan, ToStringRendersIntervals)
{
    SchedulePlan plan;
    plan.append(1, 2);
    plan.append(5, 7);
    EXPECT_EQ(plan.toString(), "[1, 2) + [5, 7)");
}

TEST(SchedulePlan, CopiesAreIndependentAndMovesKeepEverySegment)
{
    // One segment is held inline, several in a vector; a copy of
    // either owns its segments.
    for (const bool several : {false, true}) {
        SchedulePlan original(0, 10);
        if (several)
            original.append(20, 30);
        const std::string before = original.toString();

        SchedulePlan copy(original);
        copy.append(40, 50);
        SchedulePlan assigned;
        assigned = original;
        assigned.append(60, 70, 2);
        EXPECT_EQ(original.toString(), before);
        EXPECT_EQ(copy.toString(), before + " + [40, 50)");
        EXPECT_EQ(assigned.toString(), before + " + [60, 70)x2");

        const SchedulePlan moved(std::move(copy));
        EXPECT_EQ(moved.toString(), before + " + [40, 50)");
        SchedulePlan moved_into(5, 1);
        moved_into = std::move(assigned);
        EXPECT_EQ(moved_into.toString(), before + " + [60, 70)x2");
    }
}

TEST(SchedulePlanDeath, InvalidPlansRejected)
{
    EXPECT_DEATH(SchedulePlan(-5, 10), "starts before t=0");
    EXPECT_DEATH(SchedulePlan(0, 0), "empty or inverted");
    EXPECT_DEATH(
        {
            SchedulePlan plan(0, 100);
            plan.append(50, 150);
        },
        "overlaps the plan's end");
    EXPECT_DEATH(SchedulePlan().append(0, 10, 0), "width 0 below 1");
    const SchedulePlan empty;
    EXPECT_DEATH(empty.plannedStart(), "empty plan");
}

} // namespace
} // namespace gaia
