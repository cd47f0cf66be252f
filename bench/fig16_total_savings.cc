/**
 * @file
 * Figure 16 — Normalized versus absolute carbon savings for the
 * Alibaba-PAI year trace across regions (Carbon-Time policy).
 *
 * Shape target (paper §6.4.3): the normalized and total-savings
 * orderings differ — a low-intensity region can save a larger
 * fraction but fewer absolute kilograms than a dirtier one
 * (Ontario and Kentucky land near each other in kg while differing
 * ~20% in normalized terms).
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "analysis/parallel.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 16",
                  "normalized vs total carbon savings across "
                  "regions (Alibaba-PAI year, Carbon-Time)");

    const JobTrace trace =
        makeYearTrace(WorkloadSource::AlibabaPai, 1);
    const QueueConfig queues = calibratedQueues(trace);
    const std::vector<Region> &regions = evaluationRegions();

    struct Row
    {
        double normalized;
        double saved_kg;
    };
    std::vector<Row> rows(regions.size());
    parallelFor(regions.size(), [&](std::size_t i) {
        const CarbonTrace carbon =
            makeRegionTrace(regions[i], bench::yearSlots(), 1);
        const CarbonInfoService cis(carbon);
        const SimulationResult nowait =
            runPolicy("NoWait", trace, queues, cis);
        const SimulationResult ct =
            runPolicy("Carbon-Time", trace, queues, cis);
        rows[i] = {ct.carbon_kg / nowait.carbon_kg,
                   nowait.carbon_kg - ct.carbon_kg};
    });

    TextTable table("Normalized carbon and total saved carbon",
                    {"region", "normalized carbon",
                     "saved (kg CO2eq)"});
    auto csv = bench::openCsv(
        "fig16_total_savings",
        {"region", "normalized_carbon", "saved_kg"});
    for (std::size_t i = 0; i < regions.size(); ++i) {
        table.addRow(regionName(regions[i]),
                     {rows[i].normalized, rows[i].saved_kg});
        csv.writeRow({regionName(regions[i]),
                      fmt(rows[i].normalized, 4),
                      fmt(rows[i].saved_kg, 2)});
    }
    table.print(std::cout);

    std::cout << "\nShape target: the region ranked best by "
                 "normalized savings is not the one saving the "
                 "most kilograms — users should judge by total "
                 "reduction.\n";
    return 0;
}
