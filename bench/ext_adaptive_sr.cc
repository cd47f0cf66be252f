/**
 * @file
 * Extension — suspend-resume inside GAIA (the paper's §4.1 future
 * work). Compares the Adaptive-SR policy (online suspension with a
 * budget-aware threshold, no length knowledge) against the paper's
 * policy spectrum on the week-long Alibaba-PAI trace in South
 * Australia.
 *
 * Expected placement: Adaptive-SR should dominate Ecovisor on the
 * carbon-vs-waiting frontier (similar or better carbon at lower
 * waiting) and land between Carbon-Time (no suspension) and
 * Wait-Awhile (length-oracle suspension) on carbon.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "common/table.h"
#include "core/policies.h"
#include "core/policy_factory.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Extension",
                  "Adaptive-SR: suspend-resume inside GAIA "
                  "(week-long Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    std::vector<MetricsRow> rows;
    for (const char *name :
         {"NoWait", "Carbon-Time", "Ecovisor", "Wait-Awhile"}) {
        rows.push_back(metricsOf(
            name, runPolicy(name, trace, queues, cis)));
    }
    const AdaptiveSRPolicy adaptive;
    rows.push_back(metricsOf(
        "Adaptive-SR", runPolicy(adaptive, trace, queues, cis)));

    const double base_carbon = rows[0].carbon_kg;
    TextTable table("Carbon and waiting across the spectrum",
                    {"policy", "carbon (kg)", "savings",
                     "wait (h)"});
    auto csv = bench::openCsv(
        "ext_adaptive_sr",
        {"policy", "carbon_kg", "savings_fraction", "wait_hours"});
    for (const MetricsRow &row : rows) {
        const double savings = 1.0 - row.carbon_kg / base_carbon;
        table.addRow({row.label, fmt(row.carbon_kg, 2),
                      fmtPercent(savings),
                      fmt(row.wait_hours, 2)});
        csv.writeRow({row.label, fmt(row.carbon_kg, 4),
                      fmt(savings, 4), fmt(row.wait_hours, 4)});
    }
    table.print(std::cout);

    const MetricsRow &eco = rows[2];
    const MetricsRow &adp = rows[4];
    std::cout << "\nAdaptive-SR vs Ecovisor (all jobs): carbon "
              << fmtPercent(adp.carbon_kg / eco.carbon_kg - 1.0)
              << ", waiting "
              << fmtPercent(adp.wait_hours / eco.wait_hours - 1.0)
              << ".\n";

    // Suspension earns its keep on long jobs — short ones fit
    // whole low-carbon windows anyway. Repeat the comparison on
    // the long queue only.
    const JobTrace long_jobs =
        trace.filtered(2 * kSecondsPerHour + 1,
                       30 * kSecondsPerDay, 0);
    TextTable long_table(
        "Long jobs only (> 2 h): where suspension matters",
        {"policy", "carbon (kg)", "wait (h)"});
    auto long_csv = bench::openCsv(
        "ext_adaptive_sr_long",
        {"policy", "carbon_kg", "wait_hours"});
    const auto add_long = [&](const std::string &label,
                              const SimulationResult &r) {
        long_table.addRow(label,
                          {r.carbon_kg, r.meanWaitingHours()});
        long_csv.writeRow({label, fmt(r.carbon_kg, 4),
                           fmt(r.meanWaitingHours(), 4)});
    };
    add_long("NoWait",
             runPolicy("NoWait", long_jobs, queues, cis));
    add_long("Carbon-Time",
             runPolicy("Carbon-Time", long_jobs, queues, cis));
    add_long("Ecovisor",
             runPolicy("Ecovisor", long_jobs, queues, cis));
    add_long("Adaptive-SR",
             runPolicy(adaptive, long_jobs, queues, cis));
    add_long("Wait-Awhile",
             runPolicy("Wait-Awhile", long_jobs, queues, cis));
    long_table.print(std::cout);

    std::cout
        << "\nExpectation: on long jobs, budget-aware suspension "
           "buys carbon that uninterruptible Carbon-Time cannot "
           "reach (a long run necessarily spans expensive slots), "
           "at less waiting than Ecovisor's pause-for-anything "
           "rule — the direction §4.1 predicts for suspend-resume "
           "inside GAIA. On short-job-heavy traces, plain "
           "Carbon-Time already captures the savings.\n";
    return 0;
}
