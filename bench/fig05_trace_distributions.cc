/**
 * @file
 * Figure 5 — Job length and CPU-demand distributions of the
 * original Alibaba-PAI model versus the sampled year-long (100k)
 * and week-long (1k) traces.
 */

#include "bench_common.h"

#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "workload/generators.h"
#include "workload/trace_stats.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 5",
                  "length and CPU-demand CDFs: original vs sampled "
                  "Alibaba-PAI traces");

    // "Original": raw model samples before the paper's filters.
    const WorkloadModel model(WorkloadSource::AlibabaPai);
    Rng rng(1);
    std::vector<double> orig_lengths, orig_cpus;
    for (int i = 0; i < 50000; ++i) {
        const Job j = model.sample(rng);
        orig_lengths.push_back(toHours(j.length));
        orig_cpus.push_back(j.cpus);
    }

    const JobTrace year =
        makeYearTrace(WorkloadSource::AlibabaPai, 1);
    const JobTrace week = makeWeekTrace(1);

    const std::vector<double> length_points = {
        5.0 / 60, 10.0 / 60, 12.0 / 60, 0.5, 1, 2,
        4,        8,         12,        24,  48, 96};
    TextTable lengths("Job-length CDF  P[len <= x]",
                      {"length (h)", "original", "year-100k",
                       "week-1k"});
    auto csv = bench::openCsv(
        "fig05_length_cdf",
        {"length_hours", "original", "year", "week"});
    const auto o = empiricalCdf(orig_lengths, length_points);
    const auto y = empiricalCdf(lengthsHours(year), length_points);
    const auto w = empiricalCdf(lengthsHours(week), length_points);
    for (std::size_t i = 0; i < length_points.size(); ++i) {
        lengths.addRow(fmt(length_points[i], 2),
                       {o[i].second, y[i].second, w[i].second});
        csv.writeRow({fmt(length_points[i], 3), fmt(o[i].second, 4),
                      fmt(y[i].second, 4), fmt(w[i].second, 4)});
    }
    lengths.print(std::cout);

    const std::vector<double> cpu_points = {1, 2, 4, 8, 16, 32,
                                            64, 100};
    TextTable cpus("CPU-demand CDF  P[cpus <= x]",
                   {"cpus", "original", "year-100k", "week-1k"});
    auto csv2 = bench::openCsv(
        "fig05_cpu_cdf", {"cpus", "original", "year", "week"});
    const auto oc = empiricalCdf(orig_cpus, cpu_points);
    const auto yc = empiricalCdf(cpuDemands(year), cpu_points);
    const auto wc = empiricalCdf(cpuDemands(week), cpu_points);
    for (std::size_t i = 0; i < cpu_points.size(); ++i) {
        cpus.addRow(fmt(cpu_points[i], 0),
                    {oc[i].second, yc[i].second, wc[i].second});
        csv2.writeRow({fmt(cpu_points[i], 0), fmt(oc[i].second, 4),
                       fmt(yc[i].second, 4), fmt(wc[i].second, 4)});
    }
    cpus.print(std::cout);

    // The paper's headline filter statistics.
    double tiny_jobs = 0, tiny_compute = 0, total_compute = 0;
    for (std::size_t i = 0; i < orig_lengths.size(); ++i) {
        const double core_h = orig_lengths[i] * orig_cpus[i];
        total_compute += core_h;
        if (orig_lengths[i] < 5.0 / 60) {
            tiny_jobs += 1;
            tiny_compute += core_h;
        }
    }
    std::cout << "\nJobs under 5 minutes: "
              << fmt(100.0 * tiny_jobs / orig_lengths.size(), 1)
              << "% of jobs (paper: 38%), "
              << fmt(100.0 * tiny_compute / total_compute, 2)
              << "% of compute (paper: 0.36%)\n"
              << "Week trace mean demand: "
              << fmt(week.meanDemand(), 1) << " CPUs; year trace: "
              << fmt(year.meanDemand(), 1)
              << " CPUs (paper reserves ~100 for Alibaba)\n";
    return 0;
}
