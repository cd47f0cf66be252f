/** @file Tests for the calibrated workload generators. */

#include "workload/generators.h"

#include <gtest/gtest.h>

#include "common/stats.h"
#include "workload/trace_stats.h"

namespace gaia {
namespace {

TEST(Generators, WorkloadNames)
{
    EXPECT_EQ(workloadName(WorkloadSource::AlibabaPai),
              "Alibaba-PAI");
    EXPECT_EQ(workloadName(WorkloadSource::AzureVm), "Azure-VM");
    EXPECT_EQ(workloadName(WorkloadSource::MustangHpc),
              "Mustang-HPC");
}

TEST(Generators, BuildTraceDeterministic)
{
    TraceBuildOptions opt;
    opt.job_count = 200;
    opt.seed = 5;
    const JobTrace a = buildTrace(WorkloadSource::AlibabaPai, opt).value();
    const JobTrace b = buildTrace(WorkloadSource::AlibabaPai, opt).value();
    ASSERT_EQ(a.jobCount(), b.jobCount());
    for (std::size_t i = 0; i < a.jobCount(); ++i) {
        EXPECT_EQ(a.job(i).submit, b.job(i).submit);
        EXPECT_EQ(a.job(i).length, b.job(i).length);
        EXPECT_EQ(a.job(i).cpus, b.job(i).cpus);
    }
}

TEST(Generators, FiltersAreRespected)
{
    TraceBuildOptions opt;
    opt.job_count = 500;
    opt.min_length = 10 * kSecondsPerMinute;
    opt.max_length = kSecondsPerDay;
    opt.max_cpus = 8;
    opt.seed = 6;
    const JobTrace t = buildTrace(WorkloadSource::AlibabaPai, opt).value();
    EXPECT_EQ(t.jobCount(), 500u);
    for (const Job &j : t.jobs()) {
        EXPECT_GE(j.length, opt.min_length);
        EXPECT_LE(j.length, opt.max_length);
        EXPECT_LE(j.cpus, opt.max_cpus);
        EXPECT_GE(j.submit, 0);
        EXPECT_LT(j.submit, opt.span);
    }
}

TEST(Generators, UnsatisfiableFilterIsError)
{
    TraceBuildOptions opt;
    opt.job_count = 10;
    opt.min_length = 1;
    opt.max_length = 2; // essentially no job is 1-2 seconds long
    opt.seed = 7;
    const Result<JobTrace> t =
        buildTrace(WorkloadSource::MustangHpc, opt);
    ASSERT_FALSE(t.isOk());
    EXPECT_EQ(t.status().code(), ErrorCode::FailedPrecondition);
    EXPECT_NE(t.status().message().find("unsatisfiable"),
              std::string::npos);
}

TEST(Generators, InvalidOptionsAreError)
{
    TraceBuildOptions opt;
    opt.job_count = 0;
    EXPECT_FALSE(
        buildTrace(WorkloadSource::AlibabaPai, opt).isOk());
    opt.job_count = 10;
    opt.min_length = 100;
    opt.max_length = 50;
    EXPECT_FALSE(
        buildTrace(WorkloadSource::AlibabaPai, opt).isOk());
}

TEST(Generators, JobCountPastTheEngineLimitIsInvalidArgument)
{
    // Rejected before anything is allocated for the jobs.
    TraceBuildOptions opt;
    opt.job_count = kMaxJobs + 1;
    const Result<JobTrace> t =
        buildTrace(WorkloadSource::AlibabaPai, opt);
    ASSERT_FALSE(t.isOk());
    EXPECT_EQ(t.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(t.status().message().find("exceeds the limit"),
              std::string::npos);
}

TEST(Generators, ArrivalsAreSortedAndSpanTheWindow)
{
    TraceBuildOptions opt;
    opt.job_count = 2000;
    opt.span = kSecondsPerWeek;
    opt.seed = 8;
    const JobTrace t = buildTrace(WorkloadSource::AzureVm, opt).value();
    Seconds prev = 0;
    for (const Job &j : t.jobs()) {
        EXPECT_GE(j.submit, prev);
        prev = j.submit;
    }
    // Arrivals should cover most of the week (uniform order stats).
    EXPECT_LT(t.job(0).submit, kSecondsPerDay);
    EXPECT_GT(t.lastArrival(), 6 * kSecondsPerDay);
}

TEST(Generators, MustangLengthsCappedAtSixteenHours)
{
    TraceBuildOptions opt;
    opt.job_count = 3000;
    opt.seed = 9;
    const JobTrace t = buildTrace(WorkloadSource::MustangHpc, opt).value();
    for (const Job &j : t.jobs())
        EXPECT_LE(j.length, 16 * kSecondsPerHour);
}

TEST(Generators, AlibabaShortJobShareMatchesPaper)
{
    // Post-filter, roughly half the Alibaba jobs are under an hour
    // (paper §6.2.2) while 3-12 h jobs dominate compute cycles.
    TraceBuildOptions opt;
    opt.job_count = 20000;
    opt.seed = 10;
    const JobTrace t = buildTrace(WorkloadSource::AlibabaPai, opt).value();
    std::size_t under_hour = 0;
    for (const Job &j : t.jobs())
        under_hour += j.length < kSecondsPerHour;
    const double share =
        static_cast<double>(under_hour) /
        static_cast<double>(t.jobCount());
    EXPECT_GT(share, 0.35);
    EXPECT_LT(share, 0.65);

    const double medium_compute = computeShareByLength(
        t, 3 * kSecondsPerHour, 12 * kSecondsPerHour);
    EXPECT_GT(medium_compute, 0.25);
}

/**
 * Mean concurrent demand calibration: the paper sizes reserved
 * capacity at the traces' mean demand — Mustang 468, Alibaba 100,
 * Azure 142 (Figure 17). The generators must land in those ranges.
 */
struct DemandCase
{
    WorkloadSource source;
    double lo;
    double hi;
};

class DemandCalibration
    : public ::testing::TestWithParam<DemandCase>
{
};

TEST_P(DemandCalibration, YearTraceMeanDemandInBand)
{
    const DemandCase c = GetParam();
    // A 20k-job slice keeps the test fast; demand scales linearly
    // with job count, so scale the expectation accordingly.
    TraceBuildOptions opt;
    opt.job_count = 20000;
    opt.span = kSecondsPerYear / 5;
    opt.seed = 11;
    const JobTrace t = buildTrace(c.source, opt).value();
    const double demand = t.meanDemand();
    EXPECT_GT(demand, c.lo);
    EXPECT_LT(demand, c.hi);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTargets, DemandCalibration,
    ::testing::Values(
        DemandCase{WorkloadSource::AlibabaPai, 70.0, 150.0},
        DemandCase{WorkloadSource::AzureVm, 100.0, 190.0},
        DemandCase{WorkloadSource::MustangHpc, 330.0, 620.0}),
    [](const ::testing::TestParamInfo<DemandCase> &info) {
        std::string n = workloadName(info.param.source);
        for (char &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

TEST(Generators, DemandVariabilityOrdering)
{
    // §6.4.4: demand CoV is ~0.8 for Mustang and ~0.3 for Azure —
    // Azure must be the smoother trace.
    TraceBuildOptions opt;
    opt.job_count = 20000;
    opt.span = kSecondsPerYear / 5;
    opt.seed = 12;
    const double cov_mustang =
        demandStats(buildTrace(WorkloadSource::MustangHpc, opt).value()).cov;
    const double cov_azure =
        demandStats(buildTrace(WorkloadSource::AzureVm, opt).value()).cov;
    EXPECT_GT(cov_mustang, cov_azure);
    EXPECT_LT(cov_azure, 0.5);
}

TEST(Generators, WeekTraceMatchesPrototypeSetup)
{
    const JobTrace t = makeWeekTrace(3);
    EXPECT_EQ(t.jobCount(), 1000u);
    EXPECT_EQ(t.name(), "Alibaba-PAI");
    for (const Job &j : t.jobs()) {
        EXPECT_LE(j.cpus, 4);
        EXPECT_GE(j.length, 5 * kSecondsPerMinute);
        EXPECT_LE(j.length, 3 * kSecondsPerDay);
    }
    // Figure 11 sweeps reserved instances 0..24 with the cost
    // minimum around 18: the week trace's mean demand must sit in
    // the low-to-mid teens.
    const double demand = t.meanDemand();
    EXPECT_GT(demand, 8.0);
    EXPECT_LT(demand, 26.0);
}

TEST(Generators, MotivatingTraceMatchesSectionThree)
{
    const JobTrace t = makeMotivatingTrace(30 * kSecondsPerDay, 4);
    EXPECT_GT(t.jobCount(), 500u); // ~900 expected at 48-min gaps
    RunningStats lengths;
    for (const Job &j : t.jobs()) {
        EXPECT_EQ(j.cpus, 1);
        lengths.add(static_cast<double>(j.length));
    }
    // Exponential with a 4-hour mean.
    EXPECT_NEAR(lengths.mean(), 4.0 * kSecondsPerHour,
                0.3 * kSecondsPerHour);
    // Mean demand ~5 CPUs (the paper's example cluster sizing).
    EXPECT_NEAR(t.meanDemand(), 5.0, 1.0);
}

TEST(Generators, YearTraceSmokeViaSmallerSample)
{
    // makeYearTrace itself (100k jobs) is exercised by the benches;
    // here we just confirm the public wrapper wiring.
    TraceBuildOptions opt;
    opt.job_count = 1000;
    opt.span = kSecondsPerYear;
    opt.seed = 1;
    const JobTrace t = buildTrace(WorkloadSource::AlibabaPai, opt).value();
    EXPECT_EQ(t.jobCount(), 1000u);
    EXPECT_LT(t.lastArrival(), kSecondsPerYear);
}

} // namespace
} // namespace gaia
