/**
 * @file
 * Extension — spatial + temporal workload shifting (the paper's
 * stated future work, §2.1/§9).
 *
 * Compares, on the week-long Alibaba-PAI trace:
 *   1. temporal-only scheduling in each single region,
 *   2. spatial-only shifting (NoWait across regions),
 *   3. joint spatio-temporal shifting (Carbon-Time across regions),
 * all against a NoWait single-region baseline. The paper observes
 * up to ~9x spatial versus ~3.4x temporal variation, so the spatial
 * dimension should unlock savings beyond the best single region.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/table.h"
#include "core/policy_factory.h"
#include "core/spatial.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

namespace {

/** Simulate a spatial partition: each region on-demand only. */
double
spatialCarbonKg(const SpatialPartition &partition,
                const std::vector<const CarbonInfoSource *> &cis,
                const SchedulingPolicy &policy,
                const QueueConfig &queues)
{
    double total = 0.0;
    for (std::size_t r = 0; r < partition.region_traces.size();
         ++r) {
        if (partition.region_traces[r].empty())
            continue;
        total += runPolicy(policy, partition.region_traces[r],
                           queues, *cis[r])
                     .carbon_kg;
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Extension",
                  "spatial vs temporal carbon shifting (week-long "
                  "Alibaba-PAI)");

    const JobTrace trace = makeWeekTrace(1);
    QueueConfig queues = calibratedQueues(trace);

    const std::vector<Region> &regions = evaluationRegions();
    std::vector<CarbonTrace> traces;
    for (Region r : regions)
        traces.push_back(
            makeRegionTrace(r, bench::weekSlots(), 1));
    std::vector<CarbonInfoService> services;
    services.reserve(traces.size());
    for (const CarbonTrace &t : traces)
        services.emplace_back(t);
    std::vector<const CarbonInfoSource *> cis;
    for (const CarbonInfoService &s : services)
        cis.push_back(&s);

    const PolicyPtr nowait = makePolicy("NoWait");
    const PolicyPtr carbon_time = makePolicy("Carbon-Time");

    TextTable table("Carbon (kg CO2eq), week-long trace",
                    {"configuration", "carbon", "jobs moved"});
    auto csv = bench::openCsv("ext_spatial_shifting",
                              {"configuration", "carbon_kg"});

    // 1. Single-region results (temporal only).
    double best_single_ct = 1e18;
    std::string best_single_name;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        const double nw =
            runPolicy(*nowait, trace, queues, *cis[r]).carbon_kg;
        const double ct =
            runPolicy(*carbon_time, trace, queues, *cis[r]).carbon_kg;
        table.addRow({"NoWait @ " + regionName(regions[r]),
                      fmt(nw, 2), "-"});
        table.addRow({"Carbon-Time @ " + regionName(regions[r]),
                      fmt(ct, 2), "-"});
        csv.writeRow({"nowait_" + regionName(regions[r]),
                      fmt(nw, 4)});
        csv.writeRow({"ct_" + regionName(regions[r]), fmt(ct, 4)});
        if (ct < best_single_ct) {
            best_single_ct = ct;
            best_single_name = regionName(regions[r]);
        }
    }

    // 2. Spatial-only and 3. joint spatio-temporal.
    const auto moved = [&](const SpatialPartition &p) {
        // Jobs not in the first (home) region.
        return p.assignments.size() -
               p.region_traces.front().jobCount();
    };
    const SpatialPlanner spatial_nowait(cis, *nowait, queues);
    const SpatialPartition p1 = spatial_nowait.partition(trace);
    const double spatial_only =
        spatialCarbonKg(p1, cis, *nowait, queues);
    table.addRow({"Spatial-only (NoWait across regions)",
                  fmt(spatial_only, 2),
                  std::to_string(moved(p1))});
    csv.writeRow({"spatial_nowait", fmt(spatial_only, 4)});

    const SpatialPlanner joint(cis, *carbon_time, queues);
    const SpatialPartition p2 = joint.partition(trace);
    const double spatio_temporal =
        spatialCarbonKg(p2, cis, *carbon_time, queues);
    table.addRow({"Joint spatio-temporal (Carbon-Time)",
                  fmt(spatio_temporal, 2),
                  std::to_string(moved(p2))});
    csv.writeRow({"spatial_ct", fmt(spatio_temporal, 4)});

    table.print(std::cout);

    std::cout << "\nBest single-region Carbon-Time ("
              << best_single_name
              << "): " << fmt(best_single_ct, 2)
              << " kg; joint spatio-temporal: "
              << fmt(spatio_temporal, 2) << " kg ("
              << fmtPercent(spatio_temporal / best_single_ct - 1.0)
              << ").\nExpectation: spatial freedom never hurts and "
                 "usually beats the best single region, because "
                 "regional minima alternate over time.\n";
    return 0;
}
