/** @file Tests for the incremental (online) scheduler API. */

#include "sim/online.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/obs.h"
#include "common/rng.h"
#include "core/policy_factory.h"
#include "fault/faulty_source.h"
#include "fault/injector.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"
#include "trace/region_model.h"
#include "workload/generators.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;
using testutil::HeldColumns;
using testutil::heldColumns;

/**
 * Feed `jobs` (in submit order) the way the serving daemon does:
 * never advance past the second before a job not yet submitted.
 * Calls `step()` after every advance and every submit, then drains.
 */
template <typename Step>
void
streamJobs(OnlineScheduler &sched, const std::vector<Job> &jobs,
           Step step)
{
    for (const Job &job : jobs) {
        if (job.submit > sched.now()) {
            sched.advanceTo(job.submit - 1);
            step();
        }
        ASSERT_TRUE(sched.submit(job).isOk()) << "job " << job.id;
        step();
    }
    sched.drain();
}

TEST(Online, InterleavedSubmissionAndTime)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    // AllWait plans the latest start, so queued jobs genuinely
    // wait for the reserved core instead of spilling to on-demand.
    const PolicyPtr policy = makePolicy("AllWait-Threshold");

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::ReservedFirst)
            .value();
    EXPECT_EQ(sched.now(), 0);

    sched.submit({1, 0, hours(2), 1});
    sched.advanceTo(hours(1));
    EXPECT_EQ(sched.now(), hours(1));
    EXPECT_EQ(sched.reservedCoresInUse(), 1); // job 1 running

    // Job 2 arrives mid-flight and must queue behind job 1.
    sched.submit({2, hours(1), hours(1), 1});
    sched.advanceTo(hours(1) + 60);
    EXPECT_EQ(sched.pendingJobs(), 1u);

    sched.drain();
    const SimulationResult r = sched.finalize();
    ASSERT_EQ(r.outcomes.size(), 2u);
    EXPECT_EQ(r.start(r.outcomes[1]), hours(2)); // work-conserving
    EXPECT_EQ(r.placements(r.outcomes[1])[0].option,
              PurchaseOption::Reserved);
}

TEST(Online, MatchesBatchSimulationExactly)
{
    // The batch simulator is a trace replay over OnlineScheduler;
    // an explicitly interleaved online run over the same jobs must
    // produce identical books.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    QueueConfig queues = oneQueue(hours(4));
    Rng rng(11);
    std::vector<Job> jobs;
    for (int i = 0; i < 60; ++i) {
        jobs.push_back({i, rng.uniformInt(0, kSecondsPerDay),
                        rng.uniformInt(600, hours(4)),
                        static_cast<int>(rng.uniformInt(1, 3))});
    }
    const JobTrace trace("t", jobs);
    ClusterConfig cluster;
    cluster.reserved_cores = 5;
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);
    const PolicyPtr policy = makePolicy("Carbon-Time");

    const SimulationResult batch =
        testutil::runSim(trace, *policy, queues, cis, cluster,
                 ResourceStrategy::ReservedFirst);

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::ReservedFirst, "t")
            .value();
    // Feed jobs in arrival order with time advancing in between.
    for (const Job &job : trace.jobs()) {
        sched.advanceTo(job.submit);
        sched.submit(job);
    }
    sched.drain();
    const SimulationResult online = sched.finalize();

    ASSERT_EQ(online.outcomes.size(), batch.outcomes.size());
    EXPECT_DOUBLE_EQ(online.carbon_kg, batch.carbon_kg);
    EXPECT_DOUBLE_EQ(online.totalCost(), batch.totalCost());
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
        EXPECT_EQ(online.start(online.outcomes[i]),
                  batch.start(batch.outcomes[i]));
        EXPECT_EQ(online.finish(online.outcomes[i]),
                  batch.finish(batch.outcomes[i]));
    }
}

TEST(Online, RandomAdvancePatternsNeverChangeTheBooks)
{
    // Differential fuzz: however erratically the caller advances
    // time between submissions — one event at a time, giant leaps,
    // or repeated no-ops — the books must equal the batch run's.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    QueueConfig queues = oneQueue(hours(5));
    ClusterConfig cluster;
    cluster.reserved_cores = 3;
    const PolicyPtr policy = makePolicy("Lowest-Window");

    Rng job_rng(21);
    std::vector<Job> jobs;
    for (int i = 0; i < 40; ++i) {
        jobs.push_back({i, job_rng.uniformInt(0, kSecondsPerDay),
                        job_rng.uniformInt(600, hours(3)),
                        static_cast<int>(
                            job_rng.uniformInt(1, 2))});
    }
    const JobTrace trace("t", jobs);
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);

    const SimulationResult batch =
        testutil::runSim(trace, *policy, queues, cis, cluster,
                 ResourceStrategy::ReservedFirst);

    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng advance_rng(seed);
        OnlineScheduler sched =
            OnlineScheduler::create(*policy, queues, cis, cluster,
                                    ResourceStrategy::ReservedFirst, "t")
                .value();
        for (const Job &job : trace.jobs()) {
            // Random dawdling before each submission.
            Seconds t = sched.now();
            while (t < job.submit && advance_rng.bernoulli(0.7)) {
                t = std::min<Seconds>(
                    job.submit,
                    t + advance_rng.uniformInt(1, hours(2)));
                sched.advanceTo(t);
            }
            sched.submit(job);
        }
        sched.drain();
        const SimulationResult online = sched.finalize();
        EXPECT_DOUBLE_EQ(online.carbon_kg, batch.carbon_kg)
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(online.totalCost(), batch.totalCost())
            << "seed " << seed;
        for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
            EXPECT_EQ(online.start(online.outcomes[i]),
                      batch.start(batch.outcomes[i]))
                << "seed " << seed << " job " << i;
        }
    }
}

/** A carbon source that is down over [down_from, up_from) and
 *  exact otherwise. */
class OutageSource : public CarbonInfoSource
{
  public:
    OutageSource(const CarbonTrace &trace, Seconds down_from,
                 Seconds up_from)
        : cis_(trace), down_from_(down_from), up_from_(up_from)
    {
    }
    const CarbonTrace &trace() const override { return cis_.trace(); }
    bool availableAt(Seconds now) const override
    {
        return now < down_from_ || now >= up_from_;
    }
    double intensityAt(Seconds t) const override
    {
        return cis_.intensityAt(t);
    }
    double forecastAtSlot(Seconds now, SlotIndex slot) const override
    {
        return cis_.forecastAtSlot(now, slot);
    }

  private:
    CarbonInfoService cis_;
    Seconds down_from_;
    Seconds up_from_;
};

TEST(Online, ARetryRunsAfterASameSecondArrivalSubmittedLater)
{
    // Job 0 finds the source down and retries 5 min later, at 300 s,
    // the second in which job 2 arrives. Batch submits job 2 before
    // the retry is scheduled; the stream submits it after. Both must
    // run the arrival first, or jobs swap eviction draws.
    const CarbonTrace carbon = flatTrace();
    const OutageSource source(carbon, 0, 10);
    const QueueConfig queues = oneQueue();
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.9;
    const PolicyPtr policy = makePolicy("NoWait");
    const std::vector<Job> jobs = {{0, 0, hours(1), 1},
                                   {1, 100, hours(1), 1},
                                   {2, 300, hours(1), 1},
                                   {3, 5000, hours(1), 1}};
    const JobTrace trace("t", jobs);
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);
    const auto engine = [&] {
        return OnlineScheduler::create(*policy, queues, source, cluster,
                                       ResourceStrategy::SpotFirst, "t")
            .value();
    };

    OnlineScheduler batch_engine = engine();
    ASSERT_TRUE(batch_engine.replay(trace).isOk());
    batch_engine.drain();
    const SimulationResult batch = batch_engine.finalize();
    // The retry and job 2's arrival share their second.
    ASSERT_EQ(batch.start(batch.outcomes[0]), 300);
    ASSERT_EQ(batch.start(batch.outcomes[2]), 300);

    OnlineScheduler streamed_engine = engine();
    ASSERT_TRUE(streamed_engine.submit(jobs[0]).isOk());
    ASSERT_TRUE(streamed_engine.submit(jobs[1]).isOk());
    streamed_engine.advanceTo(99);
    ASSERT_TRUE(streamed_engine.submit(jobs[2]).isOk());
    streamed_engine.advanceTo(299);
    ASSERT_TRUE(streamed_engine.submit(jobs[3]).isOk());
    streamed_engine.drain();
    const SimulationResult streamed = streamed_engine.finalize();
    EXPECT_GT(streamed.eviction_count, 0u);
    EXPECT_EQ(fingerprintHex(resultFingerprint(streamed)),
              fingerprintHex(resultFingerprint(batch)));
}

TEST(Online, ARetryRunsBeforeTheSameSecondsOtherEvents)
{
    // Job 0 holds the one reserved core until 450 s, job 1 waits for
    // it with a planned start a day out, and job 2 finds the source
    // down at 150 s and retries at 450 s. The retry runs before the
    // core's release, so job 2 is pending, with the earlier planned
    // start, when the release hands the core on; run after the
    // release, it would find job 1 already holding the core.
    const CarbonTrace carbon = flatTrace();
    const OutageSource source(carbon, 100, 200);
    const QueueConfig queues = QueueConfig::standardShortLong();
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    const PolicyPtr policy = makePolicy("AllWait-Threshold");
    const JobTrace trace("t", {{0, 0, 450, 1},
                               {1, 10, hours(3), 1},
                               {2, 150, 600, 1}});
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, source, cluster,
                                ResourceStrategy::ReservedFirst, "t")
            .value();
    ASSERT_TRUE(sched.replay(trace).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();
    ASSERT_EQ(r.outcomes.size(), 3u);
    const JobOutcome &waiting = r.outcomes[1];
    const JobOutcome &retried = r.outcomes[2];
    EXPECT_EQ(r.start(retried), 450);
    EXPECT_EQ(r.placements(retried)[0].option, PurchaseOption::Reserved);
    EXPECT_EQ(r.start(waiting), 1050);
    EXPECT_EQ(r.placements(waiting)[0].option, PurchaseOption::Reserved);
}

TEST(Online, RandomAdvancePatternsUnderOutagesNeverChangeTheBooks)
{
    // The differential fuzz above, through carbon-source outages and
    // spot evictions: retries re-arrive on the 5-minute grid the jobs
    // arrive on, so many share a second with a later-submitted
    // arrival, and every eviction draw must still land where the
    // batch run's did.
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 40, 3);
    const CarbonInfoService cis(carbon);
    FaultSpec spec;
    spec.outage_rate = 0.4;
    spec.outage_duration = hours(2);
    spec.cis_max_retries = 4;
    spec.cis_retry_backoff = minutes(5);
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(cis, injector);
    const QueueConfig queues = oneQueue(hours(5));
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.5;
    const PolicyPtr policy = makePolicy("Carbon-Time");

    Rng job_rng(31);
    std::vector<Job> jobs;
    for (int i = 0; i < 80; ++i) {
        jobs.push_back({i, minutes(5) * job_rng.uniformInt(0, 150),
                        job_rng.uniformInt(600, hours(2)), 1});
    }
    const JobTrace trace("t", jobs);
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);
    const auto engine = [&] {
        return OnlineScheduler::create(*policy, queues, faulty, cluster,
                                       ResourceStrategy::SpotFirst, "t",
                                       &injector)
            .value();
    };
    const std::uint64_t retries_before =
        obs::counter("cis.retries").value();
    OnlineScheduler batch_engine = engine();
    ASSERT_TRUE(batch_engine.replay(trace).isOk());
    batch_engine.drain();
    const SimulationResult batch = batch_engine.finalize();
    ASSERT_GT(obs::counter("cis.retries").value(), retries_before);
    ASSERT_GT(batch.eviction_count, 0u);

    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Rng advance_rng(seed);
        OnlineScheduler sched = engine();
        for (const Job &job : trace.jobs()) {
            Seconds t = sched.now();
            while (t < job.submit - 1 && advance_rng.bernoulli(0.7)) {
                t = std::min<Seconds>(
                    job.submit - 1,
                    t + advance_rng.uniformInt(1, hours(1)));
                sched.advanceTo(t);
            }
            ASSERT_TRUE(sched.submit(job).isOk()) << "job " << job.id;
        }
        sched.drain();
        const SimulationResult online = sched.finalize();
        EXPECT_EQ(fingerprintHex(resultFingerprint(online)),
                  fingerprintHex(resultFingerprint(batch)))
            << "seed " << seed;
    }
}

TEST(Online, AStreamedFeedKeepsItsArrivalLaneAtItsPendingArrivals)
{
    // The daemon's consumer submits what it has released, then
    // advances to the second before the latest submit, so an arrival
    // is always pending and the lane never drains. Over 100k jobs,
    // two a second, submitted in index order, the lane must hold one
    // run of job indices throughout, not an entry per arrival.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");
    constexpr std::size_t kJobs = 100000;
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly, "t")
            .value();
    sched.reserveJobs(kJobs);
    std::size_t peak = 0;
    for (std::size_t i = 0; i < kJobs; ++i) {
        const Job job{static_cast<JobId>(i), static_cast<Seconds>(i / 2),
                      600, 1};
        ASSERT_TRUE(sched.submit(job).isOk());
        if (job.submit - 1 > sched.now())
            sched.advanceTo(job.submit - 1);
        peak = std::max(peak, sched.arrivalLaneRuns());
    }
    EXPECT_EQ(peak, 1u);
    sched.drain();
    EXPECT_EQ(sched.arrivalLaneRuns(), 0u);
    const SimulationResult r = sched.finalize();
    ASSERT_EQ(r.outcomes.size(), kJobs);
    EXPECT_EQ(r.job(r.outcomes.back()).id,
              static_cast<JobId>(kJobs - 1));
}

TEST(Online, DerivedHorizonCoversSchedule)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    ClusterConfig cluster; // reservation_horizon = 0 -> derive
    const PolicyPtr policy = makePolicy("NoWait");

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::OnDemandOnly)
            .value();
    sched.submit({1, hours(30), hours(5), 1});
    sched.drain();
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(r.horizon % kSecondsPerDay, 0);
    EXPECT_GE(r.horizon, hours(35));
}

TEST(Online, IntrospectionCounters)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    EXPECT_EQ(sched.submittedJobs(), 0u);
    sched.submit({1, 100, 600, 1});
    sched.submit({2, 200, 600, 1});
    EXPECT_EQ(sched.submittedJobs(), 2u);
    EXPECT_EQ(sched.pendingJobs(), 0u);
    sched.drain();
    (void)sched.finalize();
}

TEST(Online, SubmitIntoThePastIsARecoverableError)
{
    // Live feeds are untrusted input: a job whose submit time
    // precedes the simulation clock is rejected with a Status, not
    // an assertion, and leaves the scheduler usable.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    EXPECT_TRUE(sched.submit({1, 1000, 600, 1}).isOk());
    sched.advanceTo(5000);

    const Status late = sched.submit({2, 100, 600, 1});
    ASSERT_FALSE(late.isOk());
    EXPECT_EQ(late.code(), ErrorCode::InvalidArgument);
    EXPECT_NE(late.message().find("simulation time is already"),
              std::string::npos);
    EXPECT_EQ(sched.submittedJobs(), 1u); // rejection left no trace

    // The scheduler is still fully usable afterwards.
    EXPECT_TRUE(sched.submit({3, 6000, 600, 1}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(r.outcomes.size(), 2u);
    // The late job has no column entry either: outcome i is still
    // the i-th admitted job's.
    ASSERT_EQ(r.jobs->size(), 2u);
    EXPECT_EQ(r.job(r.outcomes[0]).id, 1);
    EXPECT_EQ(r.job(r.outcomes[1]).id, 3);
}

TEST(Online, SubmitRejectsWhatValidateJobRejects)
{
    // The engine holds its own input bounds rather than trusting the
    // feed: its packed outcome stores submit and length in 32 bits,
    // and cpus x width must stay inside an int.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    for (const Job &job : {Job{1, 0, 0, 1},
                           Job{2, kMaxInputDuration + 1, 600, 1},
                           Job{3, 0, 600, kMaxJobCpus + 1}}) {
        const Status status = sched.submit(job);
        ASSERT_FALSE(status.isOk()) << "job " << job.id;
        EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
        EXPECT_EQ(status.message(), validateJob(job).message());
    }
    EXPECT_EQ(sched.submittedJobs(), 0u);

    EXPECT_TRUE(sched.submit({4, 0, 600, kMaxJobCpus}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();
    ASSERT_EQ(r.outcomes.size(), 1u);
    ASSERT_EQ(r.jobs->size(), 1u);
    EXPECT_EQ(r.job(r.outcomes[0]).id, 4);
    EXPECT_EQ(r.job(r.outcomes[0]).cpus, kMaxJobCpus);
}

TEST(Online, PackedRecordsHoldTheirBoundsExactly)
{
    // A century is the longest submit and length validateJob admits
    // and what a straggler stretches to at most; both come back
    // exactly through the job column and the 32-bit outcome and
    // slice fields.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");
    FaultSpec spec;
    spec.straggler_rate = 1.0;
    spec.straggler_factor = 1e12;
    const FaultInjector injector(spec);

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly, "t", &injector)
            .value();
    ASSERT_TRUE(sched.submit({1, 0, hours(1), 1}).isOk());
    ASSERT_TRUE(
        sched.submit({2, kMaxInputDuration, kMaxInputDuration, 1})
            .isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();

    ASSERT_EQ(r.outcomes.size(), 2u);
    const Seconds submits[] = {0, kMaxInputDuration};
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const JobOutcome &o = r.outcomes[i];
        EXPECT_EQ(r.job(o).submit, submits[i]) << "job " << i;
        EXPECT_EQ(r.length(o), kMaxInputDuration) << "job " << i;
        EXPECT_EQ(r.start(o), submits[i]) << "job " << i;
        EXPECT_EQ(r.finish(o), submits[i] + kMaxInputDuration)
            << "job " << i;
        ASSERT_EQ(r.placements(o).size(), 1u) << "job " << i;
        EXPECT_EQ(r.placements(o)[0].duration(), kMaxInputDuration)
            << "job " << i;
    }
}

TEST(Online, PerJobColumnsReachJobsAdmittedAfterTheirFirstEntry)
{
    // A streamed run creates its eviction and arrival-delay columns
    // at their first nonzero entries, sized to the jobs admitted by
    // then. A job admitted later that is delayed and evicted extends
    // both and reads its entries at its own index, and finalize()
    // sizes both to every outcome, so a job admitted after the last
    // entry reads 0.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 1.0; // every spot slice, at once
    cluster.spot_max_length = hours(2);
    FaultSpec spec;
    spec.delay_rate = 0.5;
    spec.delay_duration = minutes(20);
    const FaultInjector injector(spec);
    std::vector<JobId> late;
    std::vector<JobId> on_time;
    for (JobId id = 1; late.size() < 2 || on_time.size() < 3; ++id)
        (injector.delayedStart(static_cast<std::uint64_t>(id))
             ? late
             : on_time)
            .push_back(id);

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::SpotFirst, "t",
                                &injector)
            .value();
    // Job 0 is delayed and too long for spot; job 1 is evicted from
    // spot and restarts on demand. Both columns exist once their
    // arrivals have run.
    ASSERT_TRUE(sched.submit({late[0], 0, hours(3), 1}).isOk());
    ASSERT_TRUE(sched.submit({on_time[0], 0, hours(1), 1}).isOk());
    sched.advanceTo(hours(1) - 1);
    // Job 2 runs on demand; job 3 is delayed and evicted.
    ASSERT_TRUE(sched.submit({on_time[1], hours(1), hours(3), 1}).isOk());
    ASSERT_TRUE(sched.submit({late[1], hours(1), hours(1), 1}).isOk());
    sched.advanceTo(hours(2) - 1);
    // Job 4 runs on demand, admitted after every entry.
    ASSERT_TRUE(sched.submit({on_time[2], hours(2), hours(3), 1}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();

    ASSERT_EQ(r.outcomes.size(), 5u);
    EXPECT_EQ(checkColumns(r).message(), "");
    EXPECT_EQ(r.job_evictions.size(), 5u);
    EXPECT_EQ(r.arrival_delays.size(), 5u);
    const int evictions[] = {0, 1, 0, 1, 0};
    const Seconds delays[] = {minutes(20), 0, 0, minutes(20), 0};
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
        const JobOutcome &o = r.outcomes[i];
        EXPECT_EQ(r.evictions(o), evictions[i]) << "job " << i;
        EXPECT_EQ(r.arrivalDelay(o), delays[i]) << "job " << i;
    }
    const JobOutcome &evicted = r.outcomes[3];
    EXPECT_EQ(r.job(evicted).id, late[1]);
    EXPECT_EQ(r.start(evicted), hours(1) + minutes(20));
    ASSERT_EQ(r.placements(evicted).size(), 1u);
    EXPECT_EQ(r.placements(evicted)[0].option, PurchaseOption::OnDemand);
    EXPECT_EQ(r.eviction_count, 2u);
}

TEST(Online, WidestElasticGangKeepsItsWidth)
{
    // Under a run profile at the 64-instance limit, a job keeps
    // width 64 in every slice it records: the lost spot slice a
    // storm revokes and the on-demand restart alike, which runs at
    // full width for ceil(length / max throughput).
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.0; // storms only
    // Spot eligibility compares the single-instance length.
    cluster.spot_max_length = 64 * hours(2);
    FaultSpec spec;
    spec.storm_rate = 1.0;
    spec.storm_spot_retries = 0;
    const FaultInjector injector(spec);
    const PolicyPtr policy = makePolicy("Elastic-NoWait");

    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::SpotFirst, "t", &injector)
            .value();
    const ElasticProfile widest =
        parseElasticProfile("linear:max=64").value();
    ASSERT_EQ(widest.maxInstances(), kMaxElasticInstances);
    sched.setDefaultElasticProfile(widest);
    ASSERT_TRUE(sched.submit({1, 600, 64 * hours(2), 2}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();

    ASSERT_EQ(r.outcomes.size(), 1u);
    const JobOutcome &o = r.outcomes[0];
    EXPECT_EQ(r.evictions(o), 1);
    ASSERT_EQ(r.placements(o).size(), 2u);
    EXPECT_EQ(r.lostSlices(o), 1u);
    EXPECT_EQ(r.placements(o)[1].duration(), hours(2));
    for (const PlacedSegment &seg : r.placements(o))
        EXPECT_EQ(seg.width, kMaxElasticInstances);
    EXPECT_EQ(r.lostCoreSeconds(o),
              static_cast<double>(r.placements(o)[0].duration()) * 2 *
                  kMaxElasticInstances);
}

TEST(Online, CreateValidatesUntrustedConfiguration)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");

    // Strategy/cluster inconsistency: OnDemandOnly must not carry
    // reserved cores.
    ClusterConfig odd;
    odd.reserved_cores = 4;
    const Result<OnlineScheduler> inconsistent =
        OnlineScheduler::create(*policy, queues, cis, odd,
                                ResourceStrategy::OnDemandOnly);
    ASSERT_FALSE(inconsistent.isOk());
    EXPECT_EQ(inconsistent.status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_NE(inconsistent.status().message().find(
                  "OnDemandOnly strategy with"),
              std::string::npos);

    // Out-of-range field caught by ClusterConfig::validate().
    ClusterConfig bad_rate;
    bad_rate.spot_eviction_rate = 1.5;
    const Result<OnlineScheduler> rate =
        OnlineScheduler::create(*policy, queues, cis, bad_rate,
                                ResourceStrategy::OnDemandOnly);
    ASSERT_FALSE(rate.isOk());
    EXPECT_NE(rate.status().message().find("eviction rate"),
              std::string::npos);

    ClusterConfig neg_cores;
    neg_cores.reserved_cores = -1;
    EXPECT_FALSE(OnlineScheduler::create(
                     *policy, queues, cis, neg_cores,
                     ResourceStrategy::ReservedFirst)
                     .isOk());

    // A valid setup yields a fully functional (movable) scheduler.
    Result<OnlineScheduler> good = OnlineScheduler::create(
        *policy, queues, cis, {}, ResourceStrategy::OnDemandOnly,
        "created");
    ASSERT_TRUE(good.isOk());
    OnlineScheduler sched = std::move(good).value();
    EXPECT_TRUE(sched.submit({1, 100, 600, 1}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(r.outcomes.size(), 1u);
    EXPECT_EQ(r.workload, "created");
}

TEST(OnlineDeath, ApiMisuseIsCaught)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");

    {
        OnlineScheduler sched =
            OnlineScheduler::create(*policy, queues, cis, {},
                                    ResourceStrategy::OnDemandOnly)
                .value();
        sched.submit({1, 0, 600, 1});
        EXPECT_DEATH((void)sched.finalize(),
                     "events still pending");
    }
    {
        OnlineScheduler sched =
            OnlineScheduler::create(*policy, queues, cis, {},
                                    ResourceStrategy::OnDemandOnly)
                .value();
        sched.drain();
        (void)sched.finalize();
        EXPECT_DEATH(sched.submit({1, 0, 600, 1}),
                     "after finalize");
    }
    {
        // An engine runs one trace, which it shares, so it takes
        // neither a second trace nor a streamed job beside it.
        const JobTrace trace("t", {{1, 0, 600, 1}});
        OnlineScheduler sched =
            OnlineScheduler::create(*policy, queues, cis, {},
                                    ResourceStrategy::OnDemandOnly)
                .value();
        ASSERT_TRUE(sched.replay(trace).isOk());
        EXPECT_DEATH((void)sched.replay(trace), "already holds jobs");
        EXPECT_DEATH((void)sched.submit({2, 0, 600, 1}),
                     "fed by replay");
    }
    {
        // The profile belongs to the whole run, so it cannot change
        // once a job is in.
        OnlineScheduler sched =
            OnlineScheduler::create(*policy, queues, cis, {},
                                    ResourceStrategy::OnDemandOnly)
                .value();
        ASSERT_TRUE(sched.submit({1, 0, 600, 1}).isOk());
        EXPECT_DEATH(sched.setDefaultElasticProfile(
                         parseElasticProfile("linear:max=2").value()),
                     "after submit");
    }
}

TEST(Online, EverySlotComesBackUnderEachStrategy)
{
    // Spot evictions and storms, carbon-source outages with retries,
    // pending reserved starts and elastic gangs all leave events
    // queued behind a job; once drained, every job-state slot is
    // free again (finalize() asserts the same).
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 40, 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(12));
    Rng rng(5);
    std::vector<Job> jobs;
    for (int i = 0; i < 300; ++i) {
        jobs.push_back({i, rng.uniformInt(0, 3 * kSecondsPerDay),
                        rng.uniformInt(600, hours(8)),
                        static_cast<int>(rng.uniformInt(1, 3))});
    }
    const JobTrace trace("t", jobs);

    FaultSpec spec;
    spec.outage_rate = 0.3;
    spec.outage_duration = hours(2);
    spec.cis_max_retries = 4;
    spec.cis_retry_backoff = minutes(20);
    spec.storm_rate = 0.05;
    spec.delay_rate = 0.2;
    spec.straggler_rate = 0.1;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(cis, injector);

    struct Case
    {
        const char *policy;
        ResourceStrategy strategy;
        const char *profile;
    };
    const std::uint64_t retries_before =
        obs::counter("cis.retries").value();
    for (const Case &c : {
             Case{"Wait-Awhile", ResourceStrategy::OnDemandOnly, ""},
             Case{"Carbon-Time", ResourceStrategy::HybridGreedy, ""},
             Case{"Wait-Awhile", ResourceStrategy::SpotFirst, ""},
             Case{"Carbon-Time", ResourceStrategy::ReservedFirst, ""},
             Case{"Wait-Awhile", ResourceStrategy::ReservedFirst, ""},
             Case{"Ecovisor", ResourceStrategy::SpotReserved, ""},
             Case{"Carbon-Time", ResourceStrategy::SpotReserved, ""},
             Case{"Carbon-Scaler", ResourceStrategy::SpotReserved,
                  "linear:max=4"},
         }) {
        const std::string label =
            std::string(c.policy) + " under " +
            strategyName(c.strategy);
        ClusterConfig cluster;
        cluster.reserved_cores =
            c.strategy == ResourceStrategy::OnDemandOnly ? 0 : 4;
        cluster.spot_eviction_rate = 0.2;
        cluster.spot_max_length = hours(4);
        const PolicyPtr policy = makePolicy(c.policy);
        OnlineScheduler sched =
            OnlineScheduler::create(*policy, queues, faulty, cluster,
                                    c.strategy, "t", &injector)
                .value();
        if (*c.profile != '\0')
            sched.setDefaultElasticProfile(
                parseElasticProfile(c.profile).value());
        std::size_t peak = 0;
        streamJobs(sched, trace.jobs(), [&] {
            peak = std::max(peak, sched.jobSlotsInUse());
        });
        EXPECT_GT(peak, 0u) << label;
        EXPECT_EQ(sched.jobSlotsInUse(), 0u) << label;
        const SimulationResult r = sched.finalize();
        EXPECT_EQ(r.outcomes.size(), jobs.size()) << label;
        EXPECT_EQ(checkColumns(r).message(), "") << label;
        if (c.strategy == ResourceStrategy::SpotFirst ||
            c.strategy == ResourceStrategy::SpotReserved) {
            EXPECT_GT(r.eviction_count, 0u) << label;
        }
    }
    EXPECT_GT(obs::counter("cis.retries").value(), retries_before);
}

TEST(Online, SlotPoolIsBoundedByConcurrency)
{
    // A daemon runs without end, so its working state must scale
    // with the jobs in flight, not with every job it has been given.
    // Stream a year of spot and reserved suspend-resume through the
    // engine the daemon builds, sampling the pool after each step.
    TraceBuildOptions options;
    options.job_count = 20000;
    options.span = kSecondsPerYear;
    options.seed = 3;
    const JobTrace trace =
        buildTrace(WorkloadSource::AzureVm, options).value();
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, 24 * (kDaysPerYear + 14), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues(
        {{"short", hours(2), hours(6), hours(1)},
         {"long", 3 * kSecondsPerDay, hours(24), hours(12)}});
    const PolicyPtr policy = makePolicy("Wait-Awhile");
    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = policy.get();
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster.reserved_cores = 8;
    setup.cluster.spot_eviction_rate = 0.1;
    setup.cluster.spot_max_length = hours(2);
    setup.strategy = ResourceStrategy::SpotReserved;

    const SimulationResult batch = simulateChecked(setup).value();
    OnlineScheduler sched = makeEngine(setup).value();
    std::size_t peak = 0;
    streamJobs(sched, trace.jobs(), [&] {
        peak = std::max(peak, sched.jobSlotsInUse());
    });
    EXPECT_EQ(sched.jobSlotsInUse(), 0u);
    const SimulationResult streamed = sched.finalize();

    EXPECT_GT(peak, 0u);
    EXPECT_LT(peak, trace.jobCount() / 20); // under 5% of the jobs
    EXPECT_GT(batch.eviction_count, 0u);
    EXPECT_EQ(resultFingerprint(streamed), resultFingerprint(batch));
}

TEST(Online, StalePlannedStartNeverReachesAReusedSlot)
{
    // A reserved release starts a pending job before its planned
    // start, whose event stays queued. That job keeps its slot until
    // the event has run; had the slot gone back at the start, the
    // next job to arrive would take it, and the stale event would
    // move that job to on-demand.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    // AllWait plans the latest start, submit + 6 h.
    const PolicyPtr policy = makePolicy("AllWait-Threshold");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::ReservedFirst)
            .value();

    // A holds the core until 2 h. B goes pending with planned start
    // 7 h; A's release starts it at 2 h, on the core until 8 h. C
    // arrives at 3 h, before B's planned start, and goes pending
    // (planned start 9 h) until B's release starts it at 8 h.
    ASSERT_TRUE(sched.submit({1, 0, hours(2), 1}).isOk());
    ASSERT_TRUE(sched.submit({2, hours(1), hours(6), 1}).isOk());
    sched.advanceTo(hours(3) - 1);
    EXPECT_EQ(sched.jobSlotsInUse(), 1u); // B, started at 2 h
    ASSERT_TRUE(sched.submit({3, hours(3), hours(1), 1}).isOk());
    sched.advanceTo(hours(7) - 1);
    EXPECT_EQ(sched.jobSlotsInUse(), 2u); // B and pending C
    EXPECT_EQ(sched.pendingJobs(), 1u);
    sched.advanceTo(hours(7));
    EXPECT_EQ(sched.jobSlotsInUse(), 1u); // B's planned start ran
    EXPECT_EQ(sched.pendingJobs(), 1u);   // and left C pending
    sched.advanceTo(hours(9) - 1);
    EXPECT_EQ(sched.jobSlotsInUse(), 1u); // C, started at 8 h
    EXPECT_EQ(sched.pendingJobs(), 0u);
    sched.drain();
    EXPECT_EQ(sched.jobSlotsInUse(), 0u);
    const SimulationResult r = sched.finalize();

    ASSERT_EQ(r.outcomes.size(), 3u);
    const Seconds expected[][2] = {
        {0, hours(2)}, {hours(2), hours(8)}, {hours(8), hours(9)}};
    for (std::size_t i = 0; i < 3; ++i) {
        const SegmentRange segs = r.placements(r.outcomes[i]);
        ASSERT_EQ(segs.size(), 1u) << "job " << i;
        EXPECT_EQ(segs[0].start(), expected[i][0]) << "job " << i;
        EXPECT_EQ(segs[0].end(), expected[i][1]) << "job " << i;
        EXPECT_EQ(segs[0].option, PurchaseOption::Reserved)
            << "job " << i;
        EXPECT_EQ(r.lostSlices(r.outcomes[i]), 0u) << "job " << i;
    }
}

TEST(Online, StaleSpotSegmentNeverReachesAReusedSlot)
{
    // An evicted spot job restarts on demand, which settles it, while
    // the later segments of its abandoned plan stay queued. The job
    // keeps its slot until they have run; a job arriving meanwhile
    // takes another one.
    std::vector<double> intensity(24 * 40, 500.0);
    intensity[2] = 100.0;
    intensity[5] = 100.0;
    const CarbonTrace carbon("dips", intensity);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.0; // storms only
    cluster.spot_max_length = hours(2);
    FaultSpec spec;
    spec.storm_rate = 1.0; // a storm in every hour
    spec.storm_spot_retries = 0;
    const FaultInjector injector(spec);
    const Seconds strike = injector.firstStormIn(hours(2), hours(3));
    ASSERT_GT(strike, hours(2));
    const PolicyPtr policy = makePolicy("Wait-Awhile");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::SpotFirst, "t",
                                &injector)
            .value();

    // E plans the two dips, [2 h, 3 h) and [5 h, 6 h), on spot. The
    // storm evicts its first slice and it restarts on demand at the
    // strike; its second segment stays queued for 5 h. D, too long
    // for spot, arrives at 4 h and runs on demand from its plan.
    ASSERT_TRUE(sched.submit({1, 0, hours(2), 1}).isOk());
    sched.advanceTo(hours(4) - 1);
    EXPECT_EQ(sched.jobSlotsInUse(), 1u); // E, already restarted
    ASSERT_TRUE(sched.submit({2, hours(4), hours(3), 1}).isOk());
    sched.advanceTo(hours(4));
    EXPECT_EQ(sched.jobSlotsInUse(), 1u); // D placed; E still held
    sched.advanceTo(hours(5) - 1);
    EXPECT_EQ(sched.jobSlotsInUse(), 1u);
    sched.advanceTo(hours(5));
    EXPECT_EQ(sched.jobSlotsInUse(), 0u); // E's stale segment ran
    sched.drain();
    const SimulationResult r = sched.finalize();

    ASSERT_EQ(r.outcomes.size(), 2u);
    EXPECT_EQ(r.evictions(r.outcomes[0]), 1);
    const SegmentRange e = r.placements(r.outcomes[0]);
    ASSERT_EQ(e.size(), 2u);
    EXPECT_EQ(r.lostSlices(r.outcomes[0]), 1u);
    EXPECT_EQ(e[0].start(), hours(2));
    EXPECT_EQ(e[0].end(), strike);
    EXPECT_EQ(e[0].option, PurchaseOption::Spot);
    EXPECT_EQ(e[1].start(), strike);
    EXPECT_EQ(e[1].end(), strike + hours(2));
    EXPECT_EQ(e[1].option, PurchaseOption::OnDemand);

    EXPECT_EQ(r.evictions(r.outcomes[1]), 0);
    const SegmentRange d = r.placements(r.outcomes[1]);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(r.lostSlices(r.outcomes[1]), 0u);
    EXPECT_EQ(d[0].start(), hours(4));
    EXPECT_EQ(d[0].end(), hours(7));
    EXPECT_EQ(d[0].option, PurchaseOption::OnDemand);
}

TEST(Online, OnDemandStartTimeRunsHoldOnlyTheirStarts)
{
    // A start-time policy on demand runs each job as one slice at
    // width 1 lasting its as-run length, so the run holds only its
    // outcomes and slice starts, with or without stragglers stretching
    // some of its jobs.
    const CarbonTrace carbon = testutil::fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    std::vector<Job> jobs;
    for (int i = 0; i < 40; ++i)
        jobs.push_back({i, i * 1800, minutes(30 + 7 * i), 1 + i % 3});
    const JobTrace trace("t", jobs);
    FaultSpec spec;
    spec.straggler_rate = 0.5;
    spec.straggler_factor = 1.7;
    const FaultInjector stragglers(spec);
    const HeldColumns starts_only = {{"outcomes", 40},
                                     {"segment_starts", 40}};
    for (const char *name : {"NoWait", "Carbon-Time", "Lowest-Window"}) {
        const PolicyPtr policy = makePolicy(name);
        for (const FaultInjector *faults :
             {static_cast<const FaultInjector *>(nullptr),
              &stragglers}) {
            SimulationSetup setup;
            setup.trace = &trace;
            setup.policy = policy.get();
            setup.queues = &queues;
            setup.cis = &cis;
            setup.faults = faults;
            const SimulationResult r = simulateChecked(setup).value();
            EXPECT_EQ(heldColumns(r), starts_only) << name;
            EXPECT_EQ(checkColumns(r).message(), "") << name;
            const auto stretched = std::count_if(
                r.outcomes.begin(), r.outcomes.end(),
                [&r](const JobOutcome &o) {
                    return r.length(o) != r.job(o).length;
                });
            EXPECT_EQ(stretched > 0, faults != nullptr) << name;
        }
    }
}

TEST(Online, AGangStartsTheWidthColumn)
{
    // Carbon-Scaler runs a half-hour job in one width-1 slice, but a
    // ten-hour job cannot finish within its window at width 1, so it
    // runs wider in several slices: the first of them creates the
    // width and duration columns, which hold the defaults (1 and the
    // first job's length) for the slice before.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    const PolicyPtr policy = makePolicy("Carbon-Scaler");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    sched.setDefaultElasticProfile(
        parseElasticProfile("linear:max=4").value());
    ASSERT_TRUE(sched.submit({1, 0, minutes(30), 1}).isOk());
    ASSERT_TRUE(sched.submit({2, 0, hours(10), 1}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();

    const std::size_t slices = r.segment_starts.size();
    ASSERT_GE(slices, 2u);
    EXPECT_EQ(heldColumns(r), (HeldColumns{{"outcomes", 2},
                                           {"segment_starts", slices},
                                           {"segment_widths", slices},
                                           {"segment_durations", slices}}));
    EXPECT_EQ(r.segment_widths[0], 1);
    EXPECT_EQ(r.segment_durations[0], minutes(30));
    EXPECT_GT(r.placements(r.outcomes[1]).front().width, 1);
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(Online, SpotAndReservedSlicesStartTheOptionColumn)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");

    // Too long for spot, the first job runs on demand; the second
    // runs on spot and is never evicted.
    ClusterConfig spot;
    spot.spot_eviction_rate = 0.0;
    spot.spot_max_length = hours(2);
    OnlineScheduler on_spot =
        OnlineScheduler::create(*policy, queues, cis, spot,
                                ResourceStrategy::SpotFirst)
            .value();
    ASSERT_TRUE(on_spot.submit({1, 0, hours(3), 1}).isOk());
    ASSERT_TRUE(on_spot.submit({2, 0, hours(1), 1}).isOk());
    on_spot.drain();
    const SimulationResult s = on_spot.finalize();
    EXPECT_EQ(heldColumns(s), (HeldColumns{{"outcomes", 2},
                                           {"segment_starts", 2},
                                           {"segment_options", 2}}));
    EXPECT_EQ(s.segment_options[0], PurchaseOption::OnDemand);
    EXPECT_EQ(s.segment_options[1], PurchaseOption::Spot);

    // Too wide for the one reserved core, the first job runs on
    // demand at its planned start; the second, an hour later, takes
    // the core.
    ClusterConfig reserved;
    reserved.reserved_cores = 1;
    OnlineScheduler on_reserved =
        OnlineScheduler::create(*policy, queues, cis, reserved,
                                ResourceStrategy::ReservedFirst)
            .value();
    ASSERT_TRUE(on_reserved.submit({1, 0, hours(1), 2}).isOk());
    on_reserved.advanceTo(hours(1) - 1);
    ASSERT_TRUE(on_reserved.submit({2, hours(1), hours(1), 1}).isOk());
    on_reserved.drain();
    const SimulationResult r = on_reserved.finalize();
    EXPECT_EQ(heldColumns(r), (HeldColumns{{"outcomes", 2},
                                           {"segment_starts", 2},
                                           {"segment_options", 2}}));
    EXPECT_EQ(r.segment_options[0], PurchaseOption::OnDemand);
    EXPECT_EQ(r.segment_options[1], PurchaseOption::Reserved);
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(Online, AnEvictionRestartStartsTheDurationColumnOnlyAfterALostSlice)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");
    ClusterConfig cluster;
    cluster.spot_max_length = hours(2);

    // Evicted at its first instant, a spot job records no lost slice,
    // and its on-demand restart is its one slice at its length: only
    // the eviction count is held.
    cluster.spot_eviction_rate = 1.0;
    OnlineScheduler at_once =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::SpotFirst)
            .value();
    ASSERT_TRUE(at_once.submit({1, 0, hours(3), 1}).isOk());
    ASSERT_TRUE(at_once.submit({2, 0, hours(1), 1}).isOk());
    at_once.drain();
    const SimulationResult a = at_once.finalize();
    EXPECT_EQ(heldColumns(a), (HeldColumns{{"outcomes", 2},
                                           {"segment_starts", 2},
                                           {"job_evictions", 2}}));
    EXPECT_EQ(a.evictions(a.outcomes[1]), 1);

    // A storm that strikes mid-slice loses the slice before the
    // restart: the lost slice, shorter than its job, starts the
    // duration and option columns.
    cluster.spot_eviction_rate = 0.0;
    FaultSpec spec;
    spec.storm_rate = 1.0;
    spec.storm_spot_retries = 0;
    const FaultInjector storms(spec);
    Seconds submit = 0;
    while (storms.firstStormIn(submit, submit + hours(1)) <= submit)
        submit += kSecondsPerHour;
    const Seconds strike = storms.firstStormIn(submit, submit + hours(1));
    OnlineScheduler mid_slice =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::SpotFirst, "t",
                                &storms)
            .value();
    ASSERT_TRUE(mid_slice.submit({1, 0, hours(3), 1}).isOk());
    if (submit > 0)
        mid_slice.advanceTo(submit - 1);
    ASSERT_TRUE(mid_slice.submit({2, submit, hours(1), 1}).isOk());
    mid_slice.drain();
    const SimulationResult m = mid_slice.finalize();
    EXPECT_EQ(heldColumns(m), (HeldColumns{{"outcomes", 2},
                                           {"segment_starts", 3},
                                           {"segment_options", 3},
                                           {"segment_durations", 3},
                                           {"job_evictions", 2}}));
    EXPECT_EQ(m.segment_options[0], PurchaseOption::OnDemand);
    EXPECT_EQ(m.segment_durations[0], hours(3));
    const SegmentRange evicted = m.placements(m.outcomes[1]);
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0].option, PurchaseOption::Spot);
    EXPECT_EQ(evicted[0].end(), strike);
    EXPECT_EQ(evicted[1].option, PurchaseOption::OnDemand);
    EXPECT_EQ(evicted[1].duration(), hours(1));
    EXPECT_EQ(checkColumns(m).message(), "");
}

TEST(Online, AReservedPlacementOutOfJobOrderIsGroupedInEveryColumn)
{
    // The one reserved core runs A at once. B is too wide for it and
    // waits until its planned start, 6.5 h; C takes the core at 2 h,
    // before B runs, so C's slice is recorded second: it is not slice
    // 1 of job 1, which starts the duration column with A's length
    // before it. B's slice, recorded third, starts the placement log,
    // and finalize() moves every column into job order.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    const PolicyPtr policy = makePolicy("AllWait-Threshold");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, cluster,
                                ResourceStrategy::ReservedFirst)
            .value();
    streamJobs(sched,
               {{1, 0, hours(1), 1},
                {2, minutes(30), hours(1), 2},
                {3, hours(2), minutes(90), 1}},
               [] {});
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(heldColumns(r), (HeldColumns{{"outcomes", 3},
                                           {"segment_starts", 3},
                                           {"segment_options", 3},
                                           {"segment_durations", 3}}));
    const Seconds starts[] = {0, minutes(30) + hours(6), hours(2)};
    const Seconds durations[] = {hours(1), hours(1), minutes(90)};
    const PurchaseOption options[] = {PurchaseOption::Reserved,
                                      PurchaseOption::OnDemand,
                                      PurchaseOption::Reserved};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(r.segment_starts[i], starts[i]) << i;
        EXPECT_EQ(r.segment_durations[i], durations[i]) << i;
        EXPECT_EQ(r.segment_options[i], options[i]) << i;
    }
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(Online, AStartPastTwoToTheThirtyTwoStartsTheHighWordColumn)
{
    // AllWait-Threshold starts each job at its submit plus the
    // queue's bound: the first job before 2^32 s, the second, a
    // century later, past it.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const Seconds wait =
        (Seconds{1} << 32) - kMaxInputDuration + hours(1);
    const QueueConfig queues = oneQueue(wait);
    const PolicyPtr policy = makePolicy("AllWait-Threshold");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    ASSERT_TRUE(sched.submit({1, 0, hours(1), 1}).isOk());
    ASSERT_TRUE(
        sched.submit({2, kMaxInputDuration, hours(1), 1}).isOk());
    sched.drain();
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(heldColumns(r), (HeldColumns{{"outcomes", 2},
                                           {"segment_starts", 2},
                                           {"segment_starts_hi", 2}}));
    EXPECT_EQ(r.segment_starts_hi[0], 0);
    EXPECT_EQ(r.segment_starts_hi[1], 1);
    EXPECT_EQ(r.start(r.outcomes[0]), wait);
    EXPECT_EQ(r.start(r.outcomes[1]), (Seconds{1} << 32) + hours(1));
    EXPECT_EQ(r.finish(r.outcomes[1]), (Seconds{1} << 32) + hours(2));
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(Online, AdvanceToIsIdempotentAcrossQuietPeriods)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue();
    const PolicyPtr policy = makePolicy("NoWait");
    OnlineScheduler sched =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    sched.submit({1, 0, 600, 1});
    sched.advanceTo(10000);
    sched.advanceTo(10000);
    sched.advanceTo(20000);
    EXPECT_EQ(sched.now(), 20000);
    sched.drain();
    const SimulationResult r = sched.finalize();
    EXPECT_EQ(r.finish(r.outcomes[0]), 600);
}

} // namespace
} // namespace gaia
