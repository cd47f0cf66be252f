/**
 * @file Byte budget of the per-job records.
 *
 * A sweep holds one JobOutcome per job per cell (2.0M of them for the
 * 20-cell hybrid year sweep) plus one entry per placement in each
 * segment column the result holds (3.27M there), so their sizes drive
 * the benchmark's `peak_rss_mb` (bench/perf/README.md, "End-to-end
 * metrics"). Only the start column's low words are always held; the
 * high start words, widths, options and durations are held only by a
 * run that has a slice their defaults do not give, so a fault-free
 * on-demand run of start-time policies holds 4 bytes per slice and
 * hybrid_year's cells 9. A figure that derives from a job's segments
 * (its times, money and attributed carbon) is computed, not held, as
 * is its no-wait carbon, from its admitted arrival's 32-bit offset; a
 * job's range of the segment columns is held as its end alone, since
 * it starts where the previous job's ends. A job's eviction count (one
 * byte) and arrival offset (four) are held in per-job columns of the
 * result that a run allocates only when one of its jobs is evicted
 * or arrives late, so a fault-free on-demand run holds neither and a
 * fault-free spot run at most the first. Neither record stores what
 * follows from the others: a slice is lost iff its job was evicted
 * and it is not the job's last (SimulationResult::lostSlices()), and
 * a job's as-run length is its submitted one, stretched if the run's
 * fault injector makes it a straggler (SimulationResult::length()).
 * What the job was submitted with (id, submit time, length, cpus) is
 * read from the result's job column, which a replayed run shares
 * with its trace.
 * Every trace holds one Job per job, and so does every slot of the
 * serving daemon's submission ring and a streamed engine's job
 * column. Growing any of these records should be a visible decision:
 * raise the budget here in the same change and report the
 * `peak_rss_mb` it costs. The engine's private JobState (a
 * SchedulePlan, the job index, flags and counters; 56 bytes) is held
 * only for the jobs in flight, and has its budget as a static_assert
 * in sim/online.cc; its arrival lane holds an 8-byte run of job
 * indices per break in the arrival order, one for a fault-free replay
 * (sim/event_queue.h). The result's columns are Columns
 * (common/column.h), whose allocator is stateless, so a column costs
 * a result no more bytes than a std::vector would.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cloud/purchase.h"
#include "common/column.h"
#include "core/schedule.h"
#include "sim/results.h"
#include "workload/job.h"

namespace gaia {
namespace {

/** Bytes of one entry of `column`. */
template <typename T>
constexpr std::size_t
entryBytes(const Column<T> &)
{
    return sizeof(T);
}

TEST(LayoutBudget, SegmentColumnEntriesTotalTwelveBytes)
{
    // A 48-bit start split into a 32-bit low word and 16 high bits, a
    // 32-bit duration, an 8-bit width and the 8-bit option.
    const SimulationResult r;
    EXPECT_EQ(entryBytes(r.segment_starts), 4u);
    EXPECT_EQ(entryBytes(r.segment_starts_hi), 2u);
    EXPECT_EQ(entryBytes(r.segment_durations), 4u);
    EXPECT_EQ(entryBytes(r.segment_widths), 1u);
    EXPECT_EQ(entryBytes(r.segment_options), 1u);
}

TEST(LayoutBudget, JobOutcomeIsFourBytes)
{
    // One 32-bit word: the end of the segment range (it starts where
    // the previous outcome's ends). The job's id, submit, length and
    // cpus live in the result's job column, its segments in the
    // segment column, its evictions and admitted arrival's offset in
    // per-job columns that are empty unless a job has one, and the
    // as-run length, the money, the attributed carbon and the no-wait
    // carbon derive from them.
    EXPECT_EQ(sizeof(JobOutcome), 4u);
}

TEST(LayoutBudget, JobIsThirtyTwoBytes)
{
    // id, submit and length; cpus and the queue hint share a word.
    // The elastic profile belongs to the run, not to each job.
    EXPECT_EQ(sizeof(Job), 32u);
}

TEST(LayoutBudget, AColumnIsTheSizeOfAVector)
{
    EXPECT_EQ(sizeof(Column<std::uint32_t>),
              sizeof(std::vector<std::uint32_t>));
}

TEST(LayoutBudget, SchedulePlanFitsItsBudget)
{
    EXPECT_LE(sizeof(SchedulePlan), 32u);
}

} // namespace
} // namespace gaia
