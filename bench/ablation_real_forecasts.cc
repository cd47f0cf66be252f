/**
 * @file
 * Ablation — real forecasting models instead of the paper's
 * perfect-forecast oracle. Plugs the persistence and
 * diurnal-profile forecasters into the CIS and measures how much
 * of each policy's carbon savings survives when policies plan on
 * predictions (accounting stays on ground truth), plus the
 * forecasters' own MAPE by lead time.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/table.h"
#include "trace/forecast.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "real forecast models vs the perfect-forecast "
                  "oracle (week-long Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    // Extra leading history so rolling forecasters have data from
    // the first scheduling decision: jobs start at t=0 of a trace
    // whose model phase began 14 days earlier.
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots() + 24 * 14, 1);
    const QueueConfig queues = calibratedQueues(trace);

    // Forecast quality first.
    const PersistenceForecaster persistence;
    const DiurnalProfileForecaster profile;
    TextTable accuracy("Forecaster MAPE by lead time",
                       {"lead (h)", "persistence",
                        "diurnal-profile"});
    const std::vector<int> leads = {1, 6, 24, 48};
    const auto mape_p =
        evaluateForecaster(persistence, carbon, leads);
    const auto mape_d = evaluateForecaster(profile, carbon, leads);
    auto csv_acc = bench::openCsv(
        "ablation_forecast_mape",
        {"lead_hours", "persistence_mape", "profile_mape"});
    for (std::size_t i = 0; i < leads.size(); ++i) {
        accuracy.addRow(std::to_string(leads[i]),
                        {mape_p[i].mape, mape_d[i].mape});
        csv_acc.writeRow({std::to_string(leads[i]),
                          fmt(mape_p[i].mape, 4),
                          fmt(mape_d[i].mape, 4)});
    }
    accuracy.print(std::cout);

    // Savings under each information regime.
    const CarbonInfoService oracle(carbon);
    const CarbonInfoService cis_persistence(carbon, persistence);
    const CarbonInfoService cis_profile(carbon, profile);

    const SimulationResult nowait =
        runPolicy("NoWait", trace, queues, oracle);

    TextTable table("Carbon savings vs NoWait by forecast source",
                    {"policy", "oracle", "diurnal-profile",
                     "persistence"});
    auto csv = bench::openCsv(
        "ablation_real_forecasts",
        {"policy", "oracle_savings", "profile_savings",
         "persistence_savings"});
    for (const char *policy :
         {"Lowest-Window", "Carbon-Time", "Wait-Awhile"}) {
        std::vector<double> savings;
        for (const CarbonInfoService *cis :
             {&oracle, &cis_profile, &cis_persistence}) {
            const SimulationResult r =
                runPolicy(policy, trace, queues, *cis);
            savings.push_back(1.0 -
                              r.carbon_kg / nowait.carbon_kg);
        }
        table.addRow(policy, savings);
        csv.writeRow({policy, fmt(savings[0], 4),
                      fmt(savings[1], 4), fmt(savings[2], 4)});
    }
    table.print(std::cout);

    std::cout
        << "\nExpectation: model-based forecasts keep most of the "
           "oracle's savings (the diurnal structure carries the "
           "signal), supporting the paper's perfect-forecast "
           "simplification; persistence trails the profile model "
           "on noisy grids.\n";
    return 0;
}
