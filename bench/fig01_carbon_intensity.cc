/**
 * @file
 * Figure 1 — Grid carbon intensity for three regions over three
 * days, showing ~9x spatial and ~3.4x temporal variation.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/stats.h"
#include "common/table.h"
#include "trace/region_model.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 1",
                  "grid carbon intensity across three regions, "
                  "three days");

    const std::vector<Region> regions = {Region::CaliforniaUS,
                                         Region::OntarioCanada,
                                         Region::Netherlands};
    const std::size_t slots = 24 * 3;

    std::vector<CarbonTrace> traces;
    for (Region r : regions)
        traces.push_back(makeRegionTrace(r, slots, 1, 45.0));

    TextTable table("Hourly carbon intensity (g.CO2eq/kWh)",
                    {"hour", "CA-US", "ON-CA", "NL"});
    auto csv = bench::openCsv("fig01_carbon_intensity",
                              {"hour", "ca_us", "on_ca", "nl"});
    for (std::size_t h = 0; h < slots; ++h) {
        table.addRow(std::to_string(h),
                     {traces[0].values()[h], traces[1].values()[h],
                      traces[2].values()[h]},
                     1);
        csv.writeRow({std::to_string(h),
                      fmt(traces[0].values()[h], 2),
                      fmt(traces[1].values()[h], 2),
                      fmt(traces[2].values()[h], 2)});
    }
    table.print(std::cout);

    std::cout << "\nShapes (3 days):\n";
    for (std::size_t i = 0; i < traces.size(); ++i) {
        std::cout << "  " << regionName(regions[i]) << "  "
                  << sparkline(traces[i].values()) << "\n";
    }

    // The paper's headline ratios.
    double spatial_hi = 0.0, spatial_lo = 1e18;
    double temporal = 0.0;
    for (const CarbonTrace &t : traces) {
        RunningStats s;
        for (double v : t.values())
            s.add(v);
        spatial_hi = std::max(spatial_hi, s.mean());
        spatial_lo = std::min(spatial_lo, s.mean());
        temporal = std::max(temporal, s.max() / s.min());
    }
    std::cout << "\nTemporal variation (max/min within a region): "
              << fmt(temporal, 2) << "x (paper: up to 3.37x)\n"
              << "Spatial variation (mean across regions): "
              << fmt(spatial_hi / spatial_lo, 2)
              << "x (paper: up to 9x across all regions)\n";
    return 0;
}
