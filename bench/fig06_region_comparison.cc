/**
 * @file
 * Figure 6 — Carbon-intensity level and variability across the
 * evaluated cloud regions (plus Sweden), grouping them into the
 * paper's Low/Medium/High x Stable/Variable classes.
 */

#include "bench_common.h"

#include "common/stats.h"
#include "common/table.h"
#include "trace/region_model.h"

using namespace gaia;

namespace {

std::string
classify(double mean, double cov)
{
    std::string level = mean < 150.0    ? "Low"
                        : mean < 600.0  ? "Med"
                                        : "High";
    std::string variability = cov < 0.15 ? "Stable" : "Variable";
    return level + "/" + variability;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 6",
                  "carbon intensity across cloud regions (year)");

    std::vector<Region> regions = {Region::Sweden};
    for (Region r : evaluationRegions())
        regions.push_back(r);

    TextTable table("Regional carbon intensity, 2022-style year",
                    {"region", "mean", "p5", "p95", "max", "CoV",
                     "class"});
    auto csv = bench::openCsv("fig06_region_comparison",
                              {"region", "mean", "p5", "p95", "max",
                               "cov"});
    for (Region region : regions) {
        const CarbonTrace trace =
            makeRegionTrace(region, bench::yearSlots(), 1);
        RunningStats s;
        for (double v : trace.values())
            s.add(v);
        const double p5 = percentile(trace.values(), 5.0);
        const double p95 = percentile(trace.values(), 95.0);
        table.addRow({regionName(region), fmt(s.mean(), 0),
                      fmt(p5, 0), fmt(p95, 0), fmt(s.max(), 0),
                      fmt(s.cov(), 2),
                      classify(s.mean(), s.cov())});
        csv.writeRow({regionName(region), fmt(s.mean(), 2),
                      fmt(p5, 2), fmt(p95, 2), fmt(s.max(), 2),
                      fmt(s.cov(), 4)});
    }
    table.print(std::cout);

    std::cout << "\nShape target (paper): SE Low/Stable, ON-CA "
                 "Low/Variable, SA-AU and CA-US Med/Variable, NL "
                 "Med/Variable, KY-US High/Stable.\n";
    return 0;
}
