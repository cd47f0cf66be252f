/**
 * @file
 * Figure 9 — CDF of total carbon savings by job length for the
 * Carbon-Time policy (week-long Alibaba-PAI, South Australia).
 *
 * Shape targets (paper §6.2.2): sub-hour jobs (~half of all jobs)
 * contribute ~10% of the savings; 3–12 h jobs contribute ~50%;
 * >24 h jobs contribute ~7.5%.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "analysis/savings.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 9",
                  "CDF of carbon savings by job length "
                  "(Carbon-Time, week-long Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    const SimulationResult r =
        runPolicy("Carbon-Time", trace, queues, cis);

    const std::vector<double> points = {
        5.0 / 60.0, 0.25, 0.5, 1, 2, 3, 6, 12, 24, 48, 60, 72};
    const auto cdf = savingsCdfByLength(r, points);

    TextTable table("Cumulative share of total carbon savings",
                    {"job length <= (h)", "share of savings"});
    auto csv = bench::openCsv("fig09_savings_by_length",
                              {"length_hours", "savings_share"});
    for (const auto &[x, share] : cdf) {
        table.addRow({fmt(x, 2), fmt(share, 3)});
        csv.writeRow({fmt(x, 3), fmt(share, 4)});
    }
    table.print(std::cout);

    std::cout << "\nBand contributions: <1h "
              << fmt(100.0 * savingsShareByLength(r, 0.0, 1.0), 1)
              << "% (paper ~10%), 3-12h "
              << fmt(100.0 * savingsShareByLength(r, 3.0, 12.0), 1)
              << "% (paper ~50%), >24h "
              << fmt(100.0 * savingsShareByLength(r, 24.0, 1e9), 1)
              << "% (paper ~7.5%)\n";
    return 0;
}
