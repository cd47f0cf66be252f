/**
 * @file
 * Ablation — candidate-start granularity. GAIA's policies evaluate
 * hourly slot boundaries (carbon intensity is hourly and the
 * objectives are piecewise-linear between boundaries); this
 * ablation adds 15- and 5-minute candidates to quantify how much
 * carbon that analysis-backed shortcut leaves on the table.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/table.h"
#include "core/policies.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "candidate-start granularity (week-long "
                  "Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    struct Case
    {
        std::string label;
        Seconds granularity;
    };
    const std::vector<Case> cases = {
        {"hourly boundaries", 0},
        {"15-minute grid", 15 * kSecondsPerMinute},
        {"5-minute grid", 5 * kSecondsPerMinute},
    };

    TextTable table("Carbon and waiting vs candidate granularity",
                    {"granularity", "LW carbon (kg)", "LW wait (h)",
                     "CT carbon (kg)", "CT wait (h)"});
    auto csv = bench::openCsv(
        "ablation_slot_granularity",
        {"granularity_s", "lw_carbon_kg", "lw_wait_h",
         "ct_carbon_kg", "ct_wait_h"});
    for (const Case &c : cases) {
        const LowestWindowPolicy lw(c.granularity);
        const CarbonTimePolicy ct(c.granularity);
        const SimulationResult r_lw = runPolicy(lw, trace, queues, cis);
        const SimulationResult r_ct = runPolicy(ct, trace, queues, cis);
        table.addRow(c.label,
                     {r_lw.carbon_kg, r_lw.meanWaitingHours(),
                      r_ct.carbon_kg, r_ct.meanWaitingHours()});
        csv.writeRow({std::to_string(c.granularity),
                      fmt(r_lw.carbon_kg, 4),
                      fmt(r_lw.meanWaitingHours(), 4),
                      fmt(r_ct.carbon_kg, 4),
                      fmt(r_ct.meanWaitingHours(), 4)});
    }
    table.print(std::cout);

    std::cout << "\nExpectation: refinement changes carbon by well "
                 "under 1% — hourly candidates suffice because the "
                 "intensity signal itself is hourly.\n";
    return 0;
}
