/**
 * @file
 * Ablation — queue misclassification. The paper assumes "users
 * accurately assign their short and long jobs to the appropriate
 * job queue"; real users guess. This sweep flips each job into the
 * other queue with probability p and measures what happens to the
 * estimate-driven policies: a long job in the short queue loses
 * waiting window (W 6 h instead of 24 h) and plans with a tiny
 * J_avg; a short job in the long queue overestimates its footprint
 * and may wait far longer than it should.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/rng.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

namespace {

/** Flip each job's queue with probability p. */
JobTrace
misclassify(const JobTrace &trace, const QueueConfig &queues,
            double p, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Job> jobs;
    jobs.reserve(trace.jobCount());
    for (Job job : trace.jobs()) {
        const std::size_t correct =
            queues.queueIndexFor(job.length);
        if (rng.bernoulli(p)) {
            job.queue_hint =
                static_cast<int>(correct == 0 ? 1 : 0);
        }
        jobs.push_back(job);
    }
    return JobTrace(trace.name(), std::move(jobs));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "queue misclassification (week-long Alibaba-PAI, "
                  "SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    const SimulationResult nowait =
        runPolicy("NoWait", trace, queues, cis);

    TextTable table("Carbon savings and waiting vs error rate",
                    {"misclassified", "LW savings", "LW wait (h)",
                     "CT savings", "CT wait (h)"});
    auto csv = bench::openCsv(
        "ablation_misclassification",
        {"error_rate", "lw_savings", "lw_wait_h", "ct_savings",
         "ct_wait_h"});
    for (double p : {0.0, 0.1, 0.25, 0.5}) {
        const JobTrace noisy = misclassify(trace, queues, p, 7);
        const SimulationResult lw =
            runPolicy("Lowest-Window", noisy, queues, cis);
        const SimulationResult ct =
            runPolicy("Carbon-Time", noisy, queues, cis);
        const double lw_s = 1.0 - lw.carbon_kg / nowait.carbon_kg;
        const double ct_s = 1.0 - ct.carbon_kg / nowait.carbon_kg;
        table.addRow(fmtPercent(p, 0),
                     {lw_s, lw.meanWaitingHours(), ct_s,
                      ct.meanWaitingHours()});
        csv.writeRow({fmt(p, 2), fmt(lw_s, 4),
                      fmt(lw.meanWaitingHours(), 4),
                      fmt(ct_s, 4),
                      fmt(ct.meanWaitingHours(), 4)});
    }
    table.print(std::cout);

    std::cout << "\nExpectation: savings erode gracefully with the "
                 "error rate — misfiled long jobs lose most of "
                 "their shifting window — but even 25% "
                 "misclassification keeps the bulk of the benefit, "
                 "so the paper's accurate-users assumption is a "
                 "convenience, not a crutch.\n";
    return 0;
}
