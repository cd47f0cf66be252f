/**
 * @file
 * Figure 7 — Monthly mean carbon intensity in California (US) and
 * South Australia; SA roughly doubles from July to December.
 */

#include "bench_common.h"

#include "common/stats.h"
#include "common/table.h"
#include "trace/region_model.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 7",
                  "monthly mean carbon intensity, CA-US vs SA-AU");

    const CarbonTrace ca =
        makeRegionTrace(Region::CaliforniaUS, bench::yearSlots(), 1);
    const CarbonTrace sa = makeRegionTrace(Region::SouthAustralia,
                                           bench::yearSlots(), 1);

    std::vector<RunningStats> ca_month(12), sa_month(12);
    for (std::size_t h = 0;
         h < static_cast<std::size_t>(kHoursPerYear); ++h) {
        const int m =
            monthOf(static_cast<Seconds>(h) * kSecondsPerHour);
        ca_month[static_cast<std::size_t>(m)].add(ca.values()[h]);
        sa_month[static_cast<std::size_t>(m)].add(sa.values()[h]);
    }

    TextTable table("Monthly mean carbon intensity (g.CO2eq/kWh)",
                    {"month", "CA-US", "SA-AU"});
    auto csv = bench::openCsv("fig07_seasonal_variation",
                              {"month", "ca_us", "sa_au"});
    for (int m = 0; m < 12; ++m) {
        const auto idx = static_cast<std::size_t>(m);
        table.addRow(monthName(m), {ca_month[idx].mean(),
                                    sa_month[idx].mean()},
                     0);
        csv.writeRow({monthName(m), fmt(ca_month[idx].mean(), 2),
                      fmt(sa_month[idx].mean(), 2)});
    }
    table.print(std::cout);

    std::cout << "\nSA-AU December/July ratio: "
              << fmt(sa_month[11].mean() / sa_month[6].mean(), 2)
              << "x (paper: carbon intensity almost doubles "
                 "between July and December)\n";
    return 0;
}
