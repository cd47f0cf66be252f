/**
 * @file
 * Figure 20 — ERCOT (Texas) carbon intensity versus wholesale
 * energy price over two consecutive days, plus the year-long
 * correlation (paper: rho = 0.16). One day aligns carbon and cost
 * valleys, the other conflicts.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/stats.h"
#include "common/table.h"
#include "trace/price_trace.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 20",
                  "ERCOT carbon intensity vs energy price");

    const GridMarketTrace year =
        makeErcotTrace(static_cast<std::size_t>(kHoursPerYear), 7);
    const double rho =
        pearson(year.carbon.values(), year.price.values());

    // Pick two consecutive days with opposite alignment: the day
    // whose within-day carbon/price correlation is most positive
    // and a neighbouring day where it is most negative.
    const auto day_corr = [&](std::size_t day) {
        std::vector<double> c, p;
        for (std::size_t h = 0; h < 24; ++h) {
            c.push_back(year.carbon.values()[day * 24 + h]);
            p.push_back(year.price.values()[day * 24 + h]);
        }
        return pearson(c, p);
    };
    std::size_t aligned_day = 0;
    double best = -2.0;
    for (std::size_t d = 0; d + 1 < 364; ++d) {
        const double score = day_corr(d) - day_corr(d + 1);
        if (score > best) {
            best = score;
            aligned_day = d;
        }
    }

    TextTable table("Two consecutive days (hourly)",
                    {"hour", "carbon day1", "price day1",
                     "carbon day2", "price day2"});
    auto csv = bench::openCsv(
        "fig20_price_carbon",
        {"hour", "carbon_day1", "price_day1", "carbon_day2",
         "price_day2"});
    for (std::size_t h = 0; h < 24; ++h) {
        const std::size_t i1 = aligned_day * 24 + h;
        const std::size_t i2 = (aligned_day + 1) * 24 + h;
        table.addRow(std::to_string(h),
                     {year.carbon.values()[i1],
                      year.price.values()[i1],
                      year.carbon.values()[i2],
                      year.price.values()[i2]},
                     1);
        csv.writeRow({std::to_string(h),
                      fmt(year.carbon.values()[i1], 2),
                      fmt(year.price.values()[i1], 2),
                      fmt(year.carbon.values()[i2], 2),
                      fmt(year.price.values()[i2], 2)});
    }
    table.print(std::cout);

    std::cout << "\nDay 1 carbon/price correlation: "
              << fmt(day_corr(aligned_day), 2)
              << " (aligned: one schedule can optimize both)\n"
              << "Day 2 carbon/price correlation: "
              << fmt(day_corr(aligned_day + 1), 2)
              << " (conflicting: the user must pick)\n"
              << "Year-long correlation: " << fmt(rho, 3)
              << " (paper: 0.16)\n";
    return 0;
}
