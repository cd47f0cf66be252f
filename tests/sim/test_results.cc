/** @file Tests for simulation result structures. */

#include "sim/results.h"

#include <gtest/gtest.h>

#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

/** Append a job that ran on demand over [start, start + length). */
JobOutcome &
appendRun(SimulationResult &r, Seconds submit, Seconds length,
          Seconds start, int cpus)
{
    return testutil::appendOutcome(
        r, Job{1, submit, length, cpus}, 0, 0,
        {{start, start + length, PurchaseOption::OnDemand, 1}});
}

TEST(PlacedSegment, RoundTripsTheLatestStartItHolds)
{
    const PlacedSegment seg(kMaxSegmentStart - 3600, kMaxSegmentStart,
                            PurchaseOption::Spot, kMaxSegmentWidth);
    EXPECT_EQ(seg.start(), kMaxSegmentStart - 3600);
    EXPECT_EQ(seg.end(), kMaxSegmentStart);
    EXPECT_EQ(seg.duration(), 3600);
    EXPECT_EQ(seg.width, kMaxSegmentWidth);
    EXPECT_EQ(seg.option, PurchaseOption::Spot);

    // The start's high bits survive: 2^48 - 1 s, and past 2^32.
    const PlacedSegment last(kMaxSegmentStart, kMaxSegmentStart + 1,
                             PurchaseOption::Reserved, 1);
    EXPECT_EQ(last.start(), (Seconds{1} << 48) - 1);
    EXPECT_EQ(last.end(), Seconds{1} << 48);
    const PlacedSegment wide(Seconds{1} << 32,
                             (Seconds{1} << 32) + kMaxSegmentDuration,
                             PurchaseOption::OnDemand, 1);
    EXPECT_EQ(wide.start(), Seconds{1} << 32);
    EXPECT_EQ(wide.duration(), kMaxSegmentDuration);
}

TEST(SegmentColumns, HoldTheLatestStartAndWidestGang)
{
    // Each field round-trips through its own column: the start's high
    // bits through segment_starts_hi, a 255-wide gang through
    // segment_widths, spot through segment_options and a duration
    // that is not the job's length through segment_durations.
    SimulationResult r;
    const JobOutcome &o = testutil::appendOutcome(
        r, Job{1, 0, 60, 1}, 0, 0,
        {{kMaxSegmentStart - 3600, kMaxSegmentStart,
          PurchaseOption::Spot, kMaxSegmentWidth}});
    EXPECT_EQ(r.segment_starts_hi.size(), 1u);
    EXPECT_EQ(r.segment_widths.size(), 1u);
    EXPECT_EQ(r.segment_options.size(), 1u);
    EXPECT_EQ(r.segment_durations.size(), 1u);
    const PlacedSegment seg = r.placements(o)[0];
    EXPECT_EQ(seg.start(), kMaxSegmentStart - 3600);
    EXPECT_EQ(seg.end(), kMaxSegmentStart);
    EXPECT_EQ(seg.duration(), 3600);
    EXPECT_EQ(seg.width, kMaxSegmentWidth);
    EXPECT_EQ(seg.option, PurchaseOption::Spot);
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(SegmentColumns, AnEmptyColumnReadsItsDefault)
{
    // Two one-slice on-demand jobs at width 1, each lasting its
    // length: only the start column is held, and every other field
    // reads its default, the duration being the job's as-run length.
    SimulationResult r;
    FaultSpec stragglers;
    stragglers.straggler_rate = 1.0;
    stragglers.straggler_factor = 2.0;
    r.faults = FaultInjector(stragglers);
    appendRun(r, 0, 100, 50, 1);
    testutil::appendOutcome(r, Job{2, 0, 300, 1}, 0, 0,
                            {{700, 1300, PurchaseOption::OnDemand, 1}});
    EXPECT_EQ(r.segment_starts.size(), 2u);
    EXPECT_TRUE(r.segment_starts_hi.empty());
    EXPECT_TRUE(r.segment_widths.empty());
    EXPECT_TRUE(r.segment_options.empty());
    // The first job's slice does not last its stretched length.
    ASSERT_EQ(r.segment_durations.size(), 2u);

    SimulationResult derived;
    derived.faults = r.faults;
    testutil::appendOutcome(derived, Job{1, 0, 100, 1}, 0, 0,
                            {{50, 250, PurchaseOption::OnDemand, 1}});
    testutil::appendOutcome(derived, Job{2, 0, 300, 1}, 0, 0,
                            {{700, 1300, PurchaseOption::OnDemand, 1}});
    EXPECT_TRUE(derived.segment_durations.empty());
    const SegmentRange second = derived.placements(derived.outcomes[1]);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second.front().start(), 700);
    EXPECT_EQ(second.front().duration(), 600);
    EXPECT_EQ(second.front().width, 1);
    EXPECT_EQ(second.front().option, PurchaseOption::OnDemand);
    EXPECT_EQ(derived.finish(derived.outcomes[0]), 250);
    EXPECT_EQ(checkColumns(derived).message(), "");
}

TEST(SegmentColumns, AColumnStartsAtItsFirstNonDefaultSlice)
{
    // Each optional column is created by the first slice its default
    // does not give, holding the default for every slice before it.
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    appendRun(r, 0, 100, 100, 1);
    testutil::appendOutcome(r, Job{3, 0, 100, 1}, 0, 0,
                            {{200, 300, PurchaseOption::Reserved, 2}});
    EXPECT_EQ(r.segment_widths.size(), 3u);
    EXPECT_EQ(r.segment_widths[0], 1);
    EXPECT_EQ(r.segment_widths[1], 1);
    EXPECT_EQ(r.segment_widths[2], 2);
    ASSERT_EQ(r.segment_options.size(), 3u);
    EXPECT_EQ(r.segment_options[1], PurchaseOption::OnDemand);
    EXPECT_EQ(r.segment_options[2], PurchaseOption::Reserved);
    EXPECT_TRUE(r.segment_durations.empty());
    EXPECT_TRUE(r.segment_starts_hi.empty());

    // A job's second slice breaks "slice k is job k's only one": the
    // durations before it are each job's length.
    testutil::appendOutcome(r, Job{4, 0, 100, 1}, 0, 0,
                            {{300, 350, PurchaseOption::OnDemand, 1},
                             {400, 450, PurchaseOption::OnDemand, 1}});
    ASSERT_EQ(r.segment_durations.size(), 5u);
    EXPECT_EQ(r.segment_durations[0], 100u);
    EXPECT_EQ(r.segment_durations[2], 100u);
    EXPECT_EQ(r.segment_durations[3], 50u);
    EXPECT_EQ(r.finish(r.outcomes[3]), 450);
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(PlacedSegmentDeath, AssertsEveryFieldFits)
{
    EXPECT_DEATH(PlacedSegment(kMaxSegmentStart + 1,
                               kMaxSegmentStart + 2,
                               PurchaseOption::OnDemand, 1),
                 "outside the 48-bit start");
    EXPECT_DEATH(PlacedSegment(-1, 1, PurchaseOption::OnDemand, 1),
                 "outside the 48-bit start");
    EXPECT_DEATH(PlacedSegment(0, kMaxSegmentDuration + 1,
                               PurchaseOption::OnDemand, 1),
                 "outlasts the 32-bit duration");
    EXPECT_DEATH(PlacedSegment(5, 5, PurchaseOption::OnDemand, 1),
                 "is empty");
    EXPECT_DEATH(PlacedSegment(0, 1, PurchaseOption::OnDemand,
                               kMaxSegmentWidth + 1),
                 "slice width 256");
}

TEST(JobOutcome, TimingDerivations)
{
    SimulationResult r;
    const JobOutcome &o = appendRun(r, 100, 500, 300, 1);
    EXPECT_EQ(r.completion(o), 700);
    EXPECT_EQ(r.waiting(o), 200);
}

TEST(JobOutcome, OneSegmentGivesItsSpan)
{
    SimulationResult r;
    const JobOutcome &o = appendRun(r, 100, 500, 300, 2);
    EXPECT_EQ(r.start(o), 300);
    EXPECT_EQ(r.finish(o), 800);
    EXPECT_EQ(r.lostCoreSeconds(o), 0.0);
}

TEST(JobOutcome, AnEvictionLosesEverySliceButTheRestart)
{
    // A suspend-resume job on spot: the first slice completes, the
    // second is evicted after 30 min, which loses both, and the
    // restart on demand runs the whole job and settles it.
    SimulationResult r;
    const JobOutcome &o = testutil::appendOutcome(
        r, Job{1, 0, 2 * 3600, 2}, 1, 0,
        {{0, 3600, PurchaseOption::Spot, 1},
         {7200, 9000, PurchaseOption::Spot, 1},
         {9000, 16200, PurchaseOption::OnDemand, 1}});
    EXPECT_EQ(r.lostSlices(o), 2u);
    EXPECT_EQ(r.start(o), 0);
    EXPECT_EQ(r.finish(o), 16200);
    EXPECT_EQ(r.lostCoreSeconds(o), (3600.0 + 1800.0) * 2);
    EXPECT_EQ(r.waiting(o), 16200 - 2 * 3600);

    // Never evicted, the same job's suspended slices all survive.
    const JobOutcome &kept = testutil::appendOutcome(
        r, Job{2, 0, 2 * 3600, 2}, 0, 0,
        {{0, 3600, PurchaseOption::Spot, 1},
         {7200, 10800, PurchaseOption::Spot, 1}});
    EXPECT_EQ(r.lostSlices(kept), 0u);
    EXPECT_EQ(r.finish(kept), 10800);
    EXPECT_EQ(r.lostCoreSeconds(kept), 0.0);
}

TEST(JobOutcome, LostGangCountsEveryInstance)
{
    // An elastic gang of two 3-core instances, lost after 20 min,
    // restarts at full width on demand.
    SimulationResult r;
    const JobOutcome &o = testutil::appendOutcome(
        r, Job{1, 0, 1200, 3}, 1, 0,
        {{600, 1800, PurchaseOption::Spot, 2},
         {1800, 2400, PurchaseOption::OnDemand, 2}});
    EXPECT_EQ(r.start(o), 600);
    EXPECT_EQ(r.finish(o), 2400);
    EXPECT_EQ(r.lostCoreSeconds(o), 1200.0 * 3 * 2);
}

TEST(JobOutcome, RepeatedEvictionsLoseEveryReattempt)
{
    // Evicted three times: the plan's slice and two spot re-attempts
    // are lost (an eviction at a slice's first instant records none),
    // and the third restart survives on reserved cores.
    SimulationResult r;
    const JobOutcome &o = testutil::appendOutcome(
        r, Job{1, 0, 600, 1}, 3, 0,
        {{0, 100, PurchaseOption::Spot, 1},
         {100, 400, PurchaseOption::Spot, 1},
         {400, 1000, PurchaseOption::Reserved, 1}});
    EXPECT_EQ(r.lostSlices(o), 2u);
    EXPECT_EQ(r.lostCoreSeconds(o), 400.0);
    EXPECT_EQ(r.finish(o), 1000);
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(JobOutcome, NoSegmentsGivesZeros)
{
    SimulationResult r;
    const JobOutcome &o =
        testutil::appendOutcome(r, Job{}, 0, 0, {});
    EXPECT_TRUE(r.placements(o).empty());
    EXPECT_EQ(r.placements(o).begin(), r.placements(o).end());
    EXPECT_EQ(r.start(o), 0);
    EXPECT_EQ(r.finish(o), 0);
    EXPECT_EQ(r.lostCoreSeconds(o), 0.0);
}

TEST(JobOutcome, RangesSelectEachJobsSegments)
{
    // Jobs own consecutive ranges of one column; each reads only its
    // own, and a copied result reads the same ranges of its copy.
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    testutil::appendOutcome(
        r, Job{2, 0, 100, 1}, 1, 0,
        {{200, 260, PurchaseOption::Spot, 1},
         {300, 400, PurchaseOption::Reserved, 1}});
    appendRun(r, 0, 50, 500, 1);
    ASSERT_EQ(r.segment_starts.size(), 4u);
    EXPECT_EQ(r.outcomes[0].segment_end, 1u);
    EXPECT_EQ(r.outcomes[1].segment_end, 3u);
    EXPECT_EQ(r.outcomes[2].segment_end, 4u);
    const SegmentRange second = r.placements(r.outcomes[1]);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0].start(), 200);
    EXPECT_EQ(second[1].option, PurchaseOption::Reserved);
    EXPECT_EQ(second.first(1).back().end(), 260);
    std::vector<Seconds> starts;
    for (const PlacedSegment seg : second)
        starts.push_back(seg.start());
    EXPECT_EQ(starts, (std::vector<Seconds>{200, 300}));
    EXPECT_EQ(r.placements(r.outcomes[2]).front().start(), 500);

    const SimulationResult copy = r;
    r.segment_starts.clear();
    r.segment_options.clear();
    r.segment_durations.clear();
    ASSERT_EQ(copy.placements(copy.outcomes[1]).size(), 2u);
    EXPECT_EQ(copy.start(copy.outcomes[1]), 200);
    EXPECT_EQ(copy.finish(copy.outcomes[1]), 400);
    EXPECT_EQ(copy.lostCoreSeconds(copy.outcomes[1]), 60.0);
    EXPECT_EQ(copy.start(copy.outcomes[2]), 500);
    EXPECT_EQ(copy.finish(copy.outcomes[0]), 100);
}

TEST(JobOutcome, JobIsTheColumnEntryAtTheOutcomesPosition)
{
    SimulationResult r;
    appendRun(r, 10, 100, 10, 1);
    testutil::appendOutcome(
        r, Job{7, 20, 60, 4}, 0, 0,
        {{20, 80, PurchaseOption::OnDemand, 1}});
    EXPECT_EQ(r.job(r.outcomes[0]).id, 1);
    EXPECT_EQ(r.job(r.outcomes[1]).id, 7);
    EXPECT_EQ(r.job(r.outcomes[1]).submit, 20);
    EXPECT_EQ(r.job(r.outcomes[1]).cpus, 4);

    // A copy reads its own outcomes against the one shared column.
    const SimulationResult copy = r;
    EXPECT_EQ(&copy.job(copy.outcomes[1]), &r.job(r.outcomes[1]));
}

TEST(JobOutcomeDeath, JobAssertsTheOutcomeIsInTheColumn)
{
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    const JobOutcome stray = r.outcomes[0];
    EXPECT_DEATH((void)r.job(stray), "not one of this result's");
    SimulationResult bare = r;
    bare.jobs = nullptr;
    EXPECT_DEATH((void)bare.job(bare.outcomes[0]),
                 "no job in the result's job column");
}

TEST(JobOutcomeDeath, PlacementsAssertTheOutcomeIsInTheColumn)
{
    // A range starts at the previous outcome's end, which only an
    // outcome inside the column has.
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    appendRun(r, 0, 100, 100, 1);
    const JobOutcome stray = r.outcomes[1];
    EXPECT_DEATH((void)r.placements(stray), "not one of this result's");
    EXPECT_DEATH((void)r.start(stray), "not one of this result's");
    const SimulationResult copy = r;
    EXPECT_DEATH((void)copy.placements(r.outcomes[1]),
                 "not one of this result's");
    EXPECT_DEATH((void)r.placements(r.outcomes[1])[1], "slice 1 of a range");
}

TEST(JobOutcomeDeath, PlacementsAssertARangeWithoutDurationsIsOneSlice)
{
    // Without a duration column a slice's duration is its job's
    // length, which only a job's one slice has.
    SimulationResult r;
    testutil::appendOutcome(r, Job{1, 0, 100, 1}, 0, 0,
                            {{0, 50, PurchaseOption::OnDemand, 1},
                             {60, 110, PurchaseOption::OnDemand, 1}});
    r.segment_durations.clear();
    EXPECT_DEATH((void)r.placements(r.outcomes[0]),
                 "has 2 slices but the result holds no durations");
}

TEST(JobOutcome, PerJobColumnsAreEmptyOrOneEntryPerOutcome)
{
    // Both columns stay empty while every job reads 0; the first
    // nonzero entry fills in the jobs before it, and every later job
    // takes an entry. Any other length is a broken result.
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    EXPECT_TRUE(r.job_evictions.empty());
    EXPECT_TRUE(r.arrival_delays.empty());
    EXPECT_EQ(r.evictions(r.outcomes[0]), 0);
    EXPECT_EQ(r.arrivalDelay(r.outcomes[0]), 0);

    testutil::appendOutcome(
        r, Job{2, 0, 100, 1}, 2, 600,
        {{600, 650, PurchaseOption::Spot, 1},
         {650, 700, PurchaseOption::Spot, 1},
         {700, 800, PurchaseOption::OnDemand, 1}});
    appendRun(r, 0, 100, 900, 1);
    ASSERT_EQ(r.job_evictions.size(), 3u);
    ASSERT_EQ(r.arrival_delays.size(), 3u);
    const int evictions[] = {0, 2, 0};
    const Seconds delays[] = {0, 600, 0};
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        EXPECT_EQ(r.evictions(r.outcomes[i]), evictions[i]) << i;
        EXPECT_EQ(r.arrivalDelay(r.outcomes[i]), delays[i]) << i;
    }
    EXPECT_EQ(r.lostSlices(r.outcomes[1]), 2u);
    EXPECT_EQ(checkColumns(r).message(), "");

    SimulationResult short_evictions = r;
    short_evictions.job_evictions.pop_back();
    EXPECT_EQ(checkColumns(short_evictions).message(),
              "job_evictions holds 2 entries for 3 outcomes");
    SimulationResult long_delays = r;
    long_delays.arrival_delays.push_back(0);
    EXPECT_EQ(checkColumns(long_delays).message(),
              "arrival_delays holds 4 entries for 3 outcomes");
}

/** Three jobs whose result holds every optional segment column but
 *  the high start words: one slice each, then a suspend-resume pair
 *  on spot and an on-demand gang of two. */
SimulationResult
threeJobs()
{
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    testutil::appendOutcome(r, Job{2, 0, 100, 1}, 1, 0,
                            {{100, 150, PurchaseOption::Spot, 1},
                             {200, 300, PurchaseOption::OnDemand, 1}});
    testutil::appendOutcome(r, Job{3, 0, 100, 1}, 0, 0,
                            {{300, 350, PurchaseOption::OnDemand, 2}});
    return r;
}

TEST(CheckColumns, ASegmentColumnHoldsNoneOrOneEntryPerSlice)
{
    ASSERT_EQ(checkColumns(threeJobs()).message(), "");
    SimulationResult short_widths = threeJobs();
    short_widths.segment_widths.pop_back();
    EXPECT_EQ(checkColumns(short_widths).message(),
              "segment_widths holds 3 entries for 4 slices");
    SimulationResult long_high_words = threeJobs();
    long_high_words.segment_starts_hi.assign(5, 0);
    EXPECT_EQ(checkColumns(long_high_words).message(),
              "segment_starts_hi holds 5 entries for 4 slices");
    SimulationResult short_options = threeJobs();
    short_options.segment_options.resize(1);
    EXPECT_EQ(checkColumns(short_options).message(),
              "segment_options holds 1 entries for 4 slices");
    SimulationResult long_durations = threeJobs();
    long_durations.segment_durations.push_back(1);
    EXPECT_EQ(checkColumns(long_durations).message(),
              "segment_durations holds 5 entries for 4 slices");
}

TEST(CheckColumns, RangesTileTheSegmentColumns)
{
    SimulationResult overlapping = threeJobs();
    overlapping.outcomes[1].segment_end = 1;
    EXPECT_EQ(checkColumns(overlapping).message(),
              "job 2: range ends at 1, not past its start 1 and within "
              "the column");
    SimulationResult past_the_end = threeJobs();
    past_the_end.outcomes[2].segment_end = 5;
    EXPECT_EQ(checkColumns(past_the_end).message(),
              "job 3: range ends at 5, not past its start 3 and within "
              "the column");
    SimulationResult short_of_the_end = threeJobs();
    short_of_the_end.outcomes[2].segment_end = 3;
    short_of_the_end.outcomes[1].segment_end = 2;
    EXPECT_EQ(checkColumns(short_of_the_end).message(),
              "segments past the last job's range");
}

TEST(CheckColumns, WithoutDurationsEveryRangeIsOneSlice)
{
    SimulationResult r = threeJobs();
    r.segment_durations.clear();
    EXPECT_EQ(checkColumns(r).message(),
              "job 2: range of 2 slices, but a result without "
              "segment_durations runs each job as one slice");
}

TEST(CheckColumns, EachRangeIsInTimeOrder)
{
    SimulationResult r = threeJobs();
    r.segment_starts[2] = 120; // [120, 220) overlaps [100, 150)
    EXPECT_EQ(checkColumns(r).message(),
              "job 2: slice starts before the previous one ends");
}

TEST(CheckColumns, OnlySpotSlicesAreLost)
{
    SimulationResult r = threeJobs();
    r.segment_options[1] = PurchaseOption::Reserved;
    EXPECT_EQ(checkColumns(r).message(),
              "job 2: lost a slice that did not run on spot");
}

TEST(JobOutcomeDeath, PerJobColumnsAssertTheyHoldTheOutcome)
{
    SimulationResult r;
    appendRun(r, 0, 100, 0, 1);
    testutil::appendOutcome(r, Job{2, 0, 100, 1}, 0, 600,
                            {{600, 700, PurchaseOption::OnDemand, 1}});
    r.arrival_delays.pop_back();
    EXPECT_DEATH((void)r.arrivalDelay(r.outcomes[1]),
                 "has no entry in a per-job column");
    const JobOutcome stray = r.outcomes[0];
    EXPECT_DEATH((void)r.arrivalDelay(stray), "not one of this result's");
}

TEST(JobOutcome, CarbonSaved)
{
    // One core-hour at 100 W emits 50 g at 500 g/kWh, at submit, and
    // 30 g at 300 g/kWh, an hour later, when the job ran.
    SimulationResult r;
    testutil::setCarbon(r, {500.0, 300.0}, 100.0);
    const JobOutcome &added = testutil::appendOutcome(
        r, Job{1, 0, 3600, 1}, 0, 0,
        {{3600, 7200, PurchaseOption::OnDemand, 1}});
    EXPECT_DOUBLE_EQ(r.carbonNowaitGrams(added), 50.0);
    EXPECT_DOUBLE_EQ(r.carbonGrams(added), 30.0);
    EXPECT_DOUBLE_EQ(r.carbonSaved(added), 20.0);
}

TEST(JobOutcome, NoWaitCarbonStartsAtTheAdmittedArrival)
{
    // Submitted at 0 and admitted half an hour later (a delayed start
    // or a carbon-source retry), a 2-core job of one hour, stretched
    // to 90 min by a straggler fault, would emit from 1800 to 7200 s
    // at 100 W per core: 0.2 kW x (0.5 h x 500 + 1 h x 300) g/kWh.
    SimulationResult r;
    testutil::setCarbon(r, {500.0, 300.0, 900.0}, 100.0);
    FaultSpec stragglers;
    stragglers.straggler_rate = 1.0;
    stragglers.straggler_factor = 1.5;
    r.faults = FaultInjector(stragglers);
    const JobOutcome &o = testutil::appendOutcome(
        r, Job{1, 0, 3600, 2}, 0, 1800,
        {{1800, 7200, PurchaseOption::OnDemand, 1}});
    EXPECT_EQ(r.length(o), 5400);
    EXPECT_DOUBLE_EQ(r.carbonNowaitGrams(o), 0.2 * (250.0 + 300.0));
    EXPECT_DOUBLE_EQ(r.carbonSaved(o), 0.0);
}

TEST(SimulationResult, CostAndWaitAggregates)
{
    SimulationResult r;
    r.reserved_upfront = 10.0;
    r.on_demand_cost = 5.0;
    r.spot_cost = 1.0;
    EXPECT_DOUBLE_EQ(r.totalCost(), 16.0);

    appendRun(r, 0, 3600, 3600, 1);  // wait 1 h
    appendRun(r, 0, 3600, 10800, 1); // wait 3 h
    EXPECT_DOUBLE_EQ(r.meanWaitingHours(), 2.0);
    EXPECT_DOUBLE_EQ(r.meanCompletionHours(), 3.0);
    EXPECT_NEAR(r.p95WaitingHours(), 2.9, 0.11);
}

TEST(SimulationResult, EmptyAggregatesAreZero)
{
    const SimulationResult r;
    EXPECT_DOUBLE_EQ(r.meanWaitingHours(), 0.0);
    EXPECT_DOUBLE_EQ(r.meanCompletionHours(), 0.0);
    EXPECT_DOUBLE_EQ(r.p95WaitingHours(), 0.0);
    EXPECT_DOUBLE_EQ(r.carbonSavedKg(), 0.0);
}

TEST(AllocationSeries, SplitsByPurchaseOption)
{
    SimulationResult r;
    r.horizon = 200;
    appendRun(r, 0, 100, 0, 2); // on-demand [0,100)
    testutil::appendOutcome(r, Job{2, 0, 100, 3}, 0, 0,
                            {{50, 150, PurchaseOption::Reserved, 1}});

    const auto all = allocationSeries(r, 50);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_DOUBLE_EQ(all[0], 2.0);
    EXPECT_DOUBLE_EQ(all[1], 5.0);
    EXPECT_DOUBLE_EQ(all[2], 3.0);
    EXPECT_DOUBLE_EQ(all[3], 0.0);

    const auto reserved_only = allocationSeries(
        r, 50, false, PurchaseOption::Reserved);
    EXPECT_DOUBLE_EQ(reserved_only[0], 0.0);
    EXPECT_DOUBLE_EQ(reserved_only[1], 3.0);
    const auto od_only = allocationSeries(
        r, 50, false, PurchaseOption::OnDemand);
    EXPECT_DOUBLE_EQ(od_only[1], 2.0);
}

TEST(AllocationSeries, ExtendsPastHorizonForLateSegments)
{
    SimulationResult r;
    r.horizon = 100;
    appendRun(r, 0, 100, 150, 1);
    const auto series = allocationSeries(r, 100);
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series[2], 0.5);
}

} // namespace
} // namespace gaia
