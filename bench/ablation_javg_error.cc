/**
 * @file
 * Ablation — sensitivity to the queue-average length estimate.
 * Lowest-Window and Carbon-Time replace exact job lengths with the
 * historical queue average J_avg; §6.4.1 attributes Azure's weaker
 * savings to that average being unrepresentative. Here we scale
 * the calibrated J_avg by factors from 0.25x to 4x and measure the
 * surviving carbon savings.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "mis-estimated queue-average job length "
                  "(week-long Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig calibrated = calibratedQueues(trace);

    const SimulationResult nowait =
        runPolicy("NoWait", trace, calibrated, cis);

    TextTable table("Carbon savings vs J_avg scale",
                    {"J_avg scale", "LW savings", "CT savings",
                     "CT wait (h)"});
    auto csv = bench::openCsv(
        "ablation_javg_error",
        {"scale", "lw_savings_fraction", "ct_savings_fraction",
         "ct_wait_h"});
    for (double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        std::vector<QueueSpec> specs;
        for (const QueueSpec &q : calibrated.queues()) {
            QueueSpec scaled = q;
            scaled.avg_length = std::max<Seconds>(
                static_cast<Seconds>(q.avg_length * scale),
                kSecondsPerMinute);
            specs.push_back(scaled);
        }
        const QueueConfig queues(std::move(specs));

        const SimulationResult lw =
            runPolicy("Lowest-Window", trace, queues, cis);
        const SimulationResult ct =
            runPolicy("Carbon-Time", trace, queues, cis);
        const double lw_saving =
            1.0 - lw.carbon_kg / nowait.carbon_kg;
        const double ct_saving =
            1.0 - ct.carbon_kg / nowait.carbon_kg;
        table.addRow(fmt(scale, 2),
                     {lw_saving, ct_saving,
                      ct.meanWaitingHours()});
        csv.writeRow({fmt(scale, 2), fmt(lw_saving, 4),
                      fmt(ct_saving, 4),
                      fmt(ct.meanWaitingHours(), 4)});
    }
    table.print(std::cout);

    std::cout << "\nExpectation: savings peak near the calibrated "
                 "average (scale 1.0) and degrade as the estimate "
                 "drifts — the mechanism behind the paper's "
                 "Mustang-vs-Azure retention gap.\n";
    return 0;
}
