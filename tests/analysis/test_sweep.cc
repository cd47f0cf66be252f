/** @file Tests for the SweepEngine. */

#include "analysis/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "common/time.h"

namespace gaia {
namespace {

ScenarioSpec
cell(const std::string &policy, std::uint64_t seed = 1)
{
    ScenarioSpec spec;
    spec.label = policy;
    TraceBuildOptions opt;
    opt.job_count = 50;
    opt.span = kSecondsPerDay;
    opt.seed = seed;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AlibabaPai, opt);
    spec.carbon =
        CarbonSpec::forRegion(Region::SouthAustralia, 0, 1);
    spec.policy = policy;
    return spec;
}

TEST(Sweep, RunsAllCells)
{
    SweepEngine sweep;
    EXPECT_EQ(sweep.add(cell("NoWait")), 0u);
    EXPECT_EQ(sweep.add(cell("Carbon-Time")), 1u);
    EXPECT_EQ(sweep.size(), 2u);
    sweep.run();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        ASSERT_TRUE(sweep.ran(i));
        ASSERT_TRUE(sweep.result(i).isOk())
            << sweep.result(i).status().toString();
        EXPECT_EQ(sweep.result(i)->outcomes.size(), 50u);
    }
    EXPECT_EQ(sweep.failureCount(), 0u);
}

TEST(Sweep, SharedSpecsBuildAssetsOnce)
{
    SweepEngine sweep;
    for (const char *policy :
         {"NoWait", "Lowest-Window", "Carbon-Time"})
        sweep.add(cell(policy));
    sweep.run();
    // One trace + one carbon + one queue calibration for three cells;
    // every other lookup is served from the cache.
    EXPECT_EQ(sweep.cache().misses(), 3u);
    EXPECT_GT(sweep.cache().hits(), 0u);
}

TEST(Sweep, InvalidCellDoesNotKillTheSweep)
{
    SweepEngine sweep;
    sweep.add(cell("NoWait"));
    sweep.add(cell("No-Such-Policy"));
    sweep.add(cell("Carbon-Time"));
    sweep.run();
    EXPECT_TRUE(sweep.result(0).isOk());
    EXPECT_FALSE(sweep.result(1).isOk());
    EXPECT_EQ(sweep.result(1).status().code(),
              ErrorCode::NotFound);
    EXPECT_TRUE(sweep.result(2).isOk());
    EXPECT_EQ(sweep.failureCount(), 1u);
}

TEST(Sweep, ParallelMatchesSerial)
{
    SweepEngine serial(1);
    SweepEngine parallel(4);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        serial.add(cell("Carbon-Time", seed));
        parallel.add(cell("Carbon-Time", seed));
    }
    serial.run();
    parallel.run();
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial.result(i).isOk());
        ASSERT_TRUE(parallel.result(i).isOk());
        EXPECT_DOUBLE_EQ(serial.result(i)->carbon_kg,
                         parallel.result(i)->carbon_kg);
        EXPECT_DOUBLE_EQ(serial.result(i)->totalCost(),
                         parallel.result(i)->totalCost());
    }
}

TEST(Sweep, SummaryReportsCountsAndFailures)
{
    SweepEngine sweep;
    sweep.add(cell("NoWait"));
    sweep.add(cell("Broken-Policy"));
    sweep.run();
    std::ostringstream out;
    sweep.printSummary(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("2 cells"), std::string::npos);
    EXPECT_NE(text.find("1 ok"), std::string::npos);
    EXPECT_NE(text.find("1 failed"), std::string::npos);
    EXPECT_NE(text.find("Broken-Policy"), std::string::npos);
}

/** Where each of `r`'s per-job and per-slice columns keeps its
 *  entries; null for a column never allocated. */
std::vector<const void *>
columnBuffers(const SimulationResult &r)
{
    return {r.outcomes.data(),          r.segment_starts.data(),
            r.segment_starts_hi.data(), r.segment_widths.data(),
            r.segment_options.data(),   r.segment_durations.data(),
            r.job_evictions.data(),     r.arrival_delays.data()};
}

TEST(Sweep, RerunIsIdempotent)
{
    // A plain cell, a replica group, an elastic spot+reserved cell
    // that fills every optional column but the high start words, and
    // an invalid cell: every OK cell's rerun must reproduce its
    // result in the very columns the previous run allocated.
    SweepEngine sweep(2);
    sweep.add(cell("NoWait"));
    sweep.addSeedReplicas(cell("Carbon-Time", 3), 3);
    ScenarioSpec hybrid = cell("Carbon-Scaler");
    hybrid.elastic_profile = "linear:max=4";
    hybrid.strategy = ResourceStrategy::SpotReserved;
    hybrid.cluster.reserved_cores = 4;
    hybrid.cluster.spot_eviction_rate = 0.3;
    hybrid.cluster.spot_max_length = hours(4);
    const std::size_t elastic = sweep.add(hybrid);
    const std::size_t invalid = sweep.add(cell("No-Such-Policy"));
    sweep.run();
    const std::size_t cells = sweep.size();
    std::vector<std::uint64_t> fingerprints(cells, 0);
    std::vector<std::vector<const void *>> columns(cells);
    for (std::size_t i = 0; i < cells; ++i) {
        if (i == invalid)
            continue;
        ASSERT_TRUE(sweep.result(i).isOk())
            << sweep.result(i).status().toString();
        fingerprints[i] = resultFingerprint(*sweep.result(i));
        columns[i] = columnBuffers(*sweep.result(i));
    }
    const SimulationResult &wide = *sweep.result(elastic);
    EXPECT_FALSE(wide.segment_widths.empty());
    EXPECT_FALSE(wide.segment_options.empty());
    EXPECT_FALSE(wide.segment_durations.empty());
    EXPECT_FALSE(wide.job_evictions.empty());
    ASSERT_FALSE(sweep.result(invalid).isOk());

    // A cell added between runs gets the same results as a
    // standalone run of its spec.
    const std::size_t added = sweep.add(cell("Lowest-Window", 5));
    for (int pass = 0; pass < 2; ++pass) {
        sweep.run();
        for (std::size_t i = 0; i < cells; ++i) {
            if (i == invalid)
                continue;
            ASSERT_TRUE(sweep.result(i).isOk());
            EXPECT_EQ(resultFingerprint(*sweep.result(i)),
                      fingerprints[i])
                << "cell " << i << " pass " << pass;
            EXPECT_EQ(columnBuffers(*sweep.result(i)), columns[i])
                << "cell " << i << " pass " << pass;
        }
        EXPECT_FALSE(sweep.result(invalid).isOk());
        EXPECT_EQ(sweep.failureCount(), 1u);
        ASSERT_TRUE(sweep.result(added).isOk());
        EXPECT_EQ(resultFingerprint(*sweep.result(added)),
                  resultFingerprint(
                      *runScenario(cell("Lowest-Window", 5))));
    }
}

TEST(Sweep, GroupCellsGetConsecutiveIndices)
{
    SweepEngine sweep;
    EXPECT_EQ(sweep.add(cell("NoWait")), 0u);
    EXPECT_EQ(sweep.addGroup({cell("Carbon-Time", 1),
                              cell("Carbon-Time", 2),
                              cell("Carbon-Time", 3)}),
              1u);
    EXPECT_EQ(sweep.add(cell("Lowest-Window")), 4u);
    EXPECT_EQ(sweep.size(), 5u);

    sweep.run();
    EXPECT_EQ(sweep.failureCount(), 0u);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        ASSERT_TRUE(sweep.ran(i));
        ASSERT_TRUE(sweep.result(i).isOk())
            << sweep.result(i).status().toString();
    }
}

TEST(Sweep, SeedReplicasVarySeedsAndLabels)
{
    SweepEngine sweep;
    EXPECT_EQ(sweep.addSeedReplicas(cell("Carbon-Time", 10), 3),
              0u);
    EXPECT_EQ(sweep.size(), 3u);

    // Replica r shifts the seeds by +r and tags the label.
    EXPECT_EQ(sweep.spec(0).workload.options.seed, 10u);
    EXPECT_EQ(sweep.spec(1).workload.options.seed, 11u);
    EXPECT_EQ(sweep.spec(2).workload.options.seed, 12u);
    EXPECT_EQ(sweep.spec(1).carbon.seed,
              sweep.spec(0).carbon.seed + 1);
    EXPECT_NE(sweep.spec(2).label.find("seed=12"),
              std::string::npos);

    sweep.run();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        ASSERT_TRUE(sweep.result(i).isOk())
            << sweep.result(i).status().toString();
    }
    // Different seeds -> genuinely different worlds.
    EXPECT_NE(sweep.result(0)->carbon_kg,
              sweep.result(1)->carbon_kg);
}

TEST(Sweep, NestedGroupRunMatchesFlatRun)
{
    SweepEngine flat(2);
    SweepEngine grouped(2);
    grouped.addSeedReplicas(cell("Carbon-Time", 1), 3);
    for (std::size_t i = 0; i < grouped.size(); ++i)
        flat.add(grouped.spec(i)); // same specs, flat fan-out

    flat.run();
    grouped.run();
    for (std::size_t i = 0; i < flat.size(); ++i) {
        ASSERT_TRUE(flat.result(i).isOk());
        ASSERT_TRUE(grouped.result(i).isOk());
        EXPECT_DOUBLE_EQ(flat.result(i)->carbon_kg,
                         grouped.result(i)->carbon_kg);
        EXPECT_DOUBLE_EQ(flat.result(i)->totalCost(),
                         grouped.result(i)->totalCost());
    }
}

} // namespace
} // namespace gaia
