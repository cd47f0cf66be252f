/** @file Tests for jobs and job traces. */

#include "workload/job.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace gaia {
namespace {

JobTrace
makeTrace()
{
    // Deliberately unsorted input; ids encode the expected order.
    return JobTrace("t", {
                             {2, 500, 100, 1},
                             {1, 100, 3600, 2},
                             {3, 900, 50, 4},
                         });
}

TEST(Job, CoreSeconds)
{
    const Job j{1, 0, 100, 3};
    EXPECT_DOUBLE_EQ(j.coreSeconds(), 300.0);
}

TEST(JobTrace, SortsBySubmitTime)
{
    const JobTrace t = makeTrace();
    ASSERT_EQ(t.jobCount(), 3u);
    EXPECT_EQ(t.job(0).id, 1);
    EXPECT_EQ(t.job(1).id, 2);
    EXPECT_EQ(t.job(2).id, 3);
    EXPECT_EQ(t.lastArrival(), 900);
}

TEST(JobTrace, StableOrderForEqualSubmits)
{
    const JobTrace t("t", {{7, 100, 10, 1}, {8, 100, 10, 1}});
    EXPECT_EQ(t.job(0).id, 7);
    EXPECT_EQ(t.job(1).id, 8);
}

TEST(JobTrace, BusyHorizonCoversLongestJob)
{
    const JobTrace t = makeTrace();
    EXPECT_EQ(t.busyHorizon(), 900 + 3600);
}

TEST(JobTrace, TotalsAndMeanDemand)
{
    const JobTrace t = makeTrace();
    const double total = 100.0 * 1 + 3600.0 * 2 + 50.0 * 4;
    EXPECT_DOUBLE_EQ(t.totalCoreSeconds(), total);
    EXPECT_DOUBLE_EQ(t.meanDemand(), total / 900.0);
}

TEST(JobTrace, EmptyTraceDefaults)
{
    const JobTrace t("empty", {});
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.lastArrival(), 0);
    EXPECT_EQ(t.busyHorizon(), 0);
    EXPECT_DOUBLE_EQ(t.meanDemand(), 0.0);
}

TEST(JobTrace, FilterByLengthAndCpus)
{
    const JobTrace t = makeTrace();
    const JobTrace by_len = t.filtered(100, 1000, 0);
    ASSERT_EQ(by_len.jobCount(), 1u);
    EXPECT_EQ(by_len.job(0).id, 2);

    const JobTrace by_cpu = t.filtered(0, 100000, 2);
    ASSERT_EQ(by_cpu.jobCount(), 2u);
    EXPECT_EQ(by_cpu.job(1).id, 2);

    const JobTrace unlimited = t.filtered(0, 100000, 0);
    EXPECT_EQ(unlimited.jobCount(), 3u);
}

TEST(JobTrace, CsvRoundTrip)
{
    const std::string path = ::testing::TempDir() + "jobs.csv";
    ASSERT_TRUE(makeTrace().toCsv(path).isOk());
    const Result<JobTrace> back = JobTrace::fromCsv(path, "t");
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    ASSERT_EQ(back->jobCount(), 3u);
    EXPECT_EQ(back->job(0).id, 1);
    EXPECT_EQ(back->job(0).length, 3600);
    EXPECT_EQ(back->job(2).cpus, 4);
    std::remove(path.c_str());
}

TEST(JobTrace, MakeRejectsInvalidJobs)
{
    const auto expectError = [](const Job &job,
                                const std::string &needle) {
        const Result<JobTrace> t = JobTrace::make("x", {job});
        ASSERT_FALSE(t.isOk());
        EXPECT_EQ(t.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(t.status().message().find(needle),
                  std::string::npos)
            << t.status().toString();
    };
    expectError({1, -5, 10, 1}, "negative submit");
    expectError({1, 0, 0, 1}, "non-positive length");
    expectError({1, 0, 10, 0}, "non-positive cpu demand");
    expectError({1, kMaxInputDuration + 1, 10, 1},
                "has submit time 3153600001 past the");
    expectError({1, 0, kMaxInputDuration + 1, 1},
                "has length 3153600001 past the");
    expectError({1, 0, 10, kMaxJobCpus + 1},
                "has cpu demand 1048577 past the 1048576 limit");
    EXPECT_TRUE(JobTrace::make("x", {{1, 0, 10, 1}}).isOk());
    EXPECT_TRUE(JobTrace::make("x", {{1, 0, 10, kMaxJobCpus}}).isOk());
    EXPECT_TRUE(JobTrace::make(
                    "x", {{1, kMaxInputDuration, kMaxInputDuration, 1}})
                    .isOk());
}

TEST(JobTrace, FromCsvReportsMalformedInput)
{
    EXPECT_FALSE(
        JobTrace::fromCsv("/nonexistent/jobs.csv", "t").isOk());

    const std::string path = ::testing::TempDir() + "jobs_bad.csv";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("id,submit,length,cpus\n1,0,oops,1\n", f);
        std::fclose(f);
    }
    const Result<JobTrace> bad = JobTrace::fromCsv(path, "t");
    ASSERT_FALSE(bad.isOk());
    EXPECT_NE(bad.status().message().find("cannot parse"),
              std::string::npos);

    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("id,submit,length,cpus\n1,0,-20,1\n", f);
        std::fclose(f);
    }
    EXPECT_FALSE(JobTrace::fromCsv(path, "t").isOk());

    // 2^32 + 1 cpus once wrapped to 1.
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("id,submit,length,cpus\n1,0,60,4294967297\n", f);
        std::fclose(f);
    }
    const Result<JobTrace> wrapped = JobTrace::fromCsv(path, "t");
    ASSERT_FALSE(wrapped.isOk());
    EXPECT_NE(wrapped.status().message().find(
                  "row 0, column 'cpus': 4294967297 is out of range"),
              std::string::npos)
        << wrapped.status().message();
    std::remove(path.c_str());
}

} // namespace
} // namespace gaia
