/**
 * @file
 * Byte-identity pins for trace synthesis.
 *
 * buildTrace is a pure function of its options, and the order in
 * which it draws from the RNG stream is part of that function: any
 * change to which draws happen, or in what order, moves every trace
 * downstream and with it every golden and bench CSV. Each case below
 * hashes the (id, submit, length, cpus) of every job and compares it
 * with a digest recorded before the synthesis fast path landed (exact
 * bin lookup, bucketed arrival sort, allocation-free mixture draws).
 * A failure here means synthesis output changed; the digests move
 * only with a deliberate change to the workload models.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "workload/generators.h"

namespace gaia {
namespace {

/** FNV-1a over each job's id, submit, length and cpus. */
std::uint64_t
traceDigest(const JobTrace &trace)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const Job &j : trace.jobs()) {
        mix(static_cast<std::uint64_t>(j.id));
        mix(static_cast<std::uint64_t>(j.submit));
        mix(static_cast<std::uint64_t>(j.length));
        mix(static_cast<std::uint64_t>(j.cpus));
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

struct DigestCase
{
    const char *name;
    WorkloadSource source;
    std::size_t jobs;
    Seconds span;
    int max_cpus;
    std::uint64_t seed;
    std::uint64_t digest;
};

/** A span that ends mid-hour, so the last arrival bin is partial. */
constexpr Seconds kRaggedSpan = 2 * kSecondsPerDay + 1234;

constexpr DigestCase kCases[] = {
    {"alibaba_year", WorkloadSource::AlibabaPai,
     100000, kSecondsPerYear, 0, 1, 0x96a58c8c77442f07ULL},
    {"azure_year", WorkloadSource::AzureVm,
     100000, kSecondsPerYear, 0, 1, 0xac8512fa02cd4ee2ULL},
    {"mustang_year", WorkloadSource::MustangHpc,
     100000, kSecondsPerYear, 0, 1, 0x23b3b33a97ac45c9ULL},
    {"alibaba_week", WorkloadSource::AlibabaPai,
     1000, kSecondsPerWeek, 0, 2, 0x85b824d130a336e8ULL},
    {"azure_week", WorkloadSource::AzureVm,
     1000, kSecondsPerWeek, 0, 2, 0x31b7e120b070fe2dULL},
    {"mustang_week", WorkloadSource::MustangHpc,
     1000, kSecondsPerWeek, 0, 2, 0xf9ad8e990e9c8138ULL},
    {"alibaba_week_cpus4", WorkloadSource::AlibabaPai,
     1000, kSecondsPerWeek, 4, 1, 0x8d642023cc5915d2ULL},
    {"azure_week_cpus1", WorkloadSource::AzureVm,
     1000, kSecondsPerWeek, 1, 3, 0xe4ffbe0d647f3218ULL},
    {"mustang_week_cpus4", WorkloadSource::MustangHpc,
     1000, kSecondsPerWeek, 4, 3, 0x88ff44aab3d5aaccULL},
    {"alibaba_ragged_7", WorkloadSource::AlibabaPai,
     7, kRaggedSpan, 0, 4, 0x0f331d0f4f31f5f5ULL},
    {"azure_ragged_7", WorkloadSource::AzureVm,
     7, kRaggedSpan, 0, 4, 0x3c5c1855e8ca61c0ULL},
    {"mustang_ragged_1000", WorkloadSource::MustangHpc,
     1000, kRaggedSpan, 0, 4, 0xab60e1ed17ff0677ULL},
    {"alibaba_one", WorkloadSource::AlibabaPai,
     1, kSecondsPerWeek, 0, 5, 0xc9f362d0e2543e92ULL},
    {"azure_one", WorkloadSource::AzureVm,
     1, kSecondsPerYear, 0, 5, 0x4113ac92f30789e2ULL},
    {"mustang_one", WorkloadSource::MustangHpc,
     1, kSecondsPerDay, 0, 5, 0x72bed5d8d894bf9eULL},
    {"alibaba_subhour_7", WorkloadSource::AlibabaPai,
     7, 1800, 0, 6, 0xc5b906ffc0fe4676ULL},
    {"mustang_subhour_1000", WorkloadSource::MustangHpc,
     1000, 1801, 0, 11, 0x9852cded0eeefb7fULL},
    {"azure_year_seed17", WorkloadSource::AzureVm,
     1000, kSecondsPerYear, 0, 17, 0x4f15e574e5f233f1ULL},
};

TEST(SynthesisDigest, OutputMatchesPinnedDigests)
{
    for (const DigestCase &c : kCases) {
        TraceBuildOptions options;
        options.job_count = c.jobs;
        options.span = c.span;
        options.max_cpus = c.max_cpus;
        options.seed = c.seed;
        const Result<JobTrace> trace = buildTrace(c.source, options);
        ASSERT_TRUE(trace.isOk())
            << c.name << ": " << trace.status().toString();
        ASSERT_EQ(trace->jobCount(), c.jobs) << c.name;
        EXPECT_EQ(hex(traceDigest(*trace)), hex(c.digest)) << c.name;
    }
}

} // namespace
} // namespace gaia
