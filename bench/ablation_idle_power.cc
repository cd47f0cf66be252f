/**
 * @file
 * Ablation — the paper's "reserved instances are turned off when
 * idle" assumption (§3). When idle reserved cores keep drawing
 * power, carbon-aware demand concentration leaves them burning
 * energy during exactly the high-carbon periods the jobs avoided,
 * eroding the scheduler's savings. This sweep quantifies how much
 * of Carbon-Time's benefit survives as the idle-power fraction
 * grows, on the Figure 10 setup (9 reserved, week-long
 * Alibaba-PAI, South Australia).
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
                  "idle-reserved power draw vs carbon savings "
                  "(week-long Alibaba-PAI, SA-AU, R=9)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    TextTable table("Carbon (kg) and savings vs idle power",
                    {"idle fraction", "NoWait", "Carbon-Time",
                     "CT savings", "CT idle share"});
    auto csv = bench::openCsv(
        "ablation_idle_power",
        {"idle_fraction", "nowait_kg", "ct_kg",
         "ct_savings_fraction", "ct_idle_kg"});
    for (double fraction : {0.0, 0.1, 0.3, 0.6, 1.0}) {
        ClusterConfig cluster;
        cluster.reserved_cores = 9;
        cluster.reserved_idle_power_fraction = fraction;

        const SimulationResult nowait = runPolicy(
            "NoWait", trace, queues, cis, cluster,
            ResourceStrategy::HybridGreedy);
        const SimulationResult ct = runPolicy(
            "Carbon-Time", trace, queues, cis, cluster,
            ResourceStrategy::HybridGreedy);
        const double savings =
            1.0 - ct.carbon_kg / nowait.carbon_kg;
        table.addRow(fmt(fraction, 1),
                     {nowait.carbon_kg, ct.carbon_kg, savings,
                      ct.idle_carbon_kg});
        csv.writeRow({fmt(fraction, 2), fmt(nowait.carbon_kg, 4),
                      fmt(ct.carbon_kg, 4), fmt(savings, 4),
                      fmt(ct.idle_carbon_kg, 4)});
    }
    table.print(std::cout);

    std::cout
        << "\nExpectation: normalized savings shrink as the idle "
           "fraction grows (idle draw is policy-independent but "
           "inflates both sides of the ratio), quantifying how "
           "much the §3 powered-off assumption flatters "
           "carbon-aware scheduling on warm fleets.\n";
    return 0;
}
