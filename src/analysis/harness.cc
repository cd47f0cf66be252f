#include "analysis/harness.h"

#include <algorithm>

#include "common/logging.h"
#include "core/policy_factory.h"

namespace gaia {

QueueConfig
calibratedQueues(const JobTrace &trace, Seconds short_wait,
                 Seconds long_wait)
{
    QueueConfig queues =
        QueueConfig::standardShortLong(short_wait, long_wait);
    queues.calibrateAverages(trace);
    return queues;
}

SimulationResult
runPolicy(const SchedulingPolicy &policy, const JobTrace &trace,
          const QueueConfig &queues, const CarbonInfoSource &cis,
          const ClusterConfig &cluster, ResourceStrategy strategy)
{
    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = &policy;
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster = cluster;
    setup.strategy = strategy;
    Result<SimulationResult> result = simulateChecked(setup);
    GAIA_ASSERT(result.isOk(), "harness simulation failed: ",
                result.status().message());
    return std::move(result).value();
}

SimulationResult
runPolicy(const std::string &policy_name, const JobTrace &trace,
          const QueueConfig &queues, const CarbonInfoSource &cis,
          const ClusterConfig &cluster, ResourceStrategy strategy)
{
    return runPolicy(*makePolicy(policy_name), trace, queues, cis,
                     cluster, strategy);
}

std::vector<double>
downsample(const std::vector<double> &values, std::size_t width)
{
    GAIA_ASSERT(width > 0, "downsample to zero width");
    if (values.size() <= width)
        return values;
    std::vector<double> out;
    out.reserve(width);
    for (std::size_t b = 0; b < width; ++b) {
        const std::size_t from = b * values.size() / width;
        const std::size_t to =
            std::max(from + 1, (b + 1) * values.size() / width);
        double sum = 0.0;
        for (std::size_t i = from; i < to; ++i)
            sum += values[i];
        out.push_back(sum / static_cast<double>(to - from));
    }
    return out;
}

std::string
sparkline(const std::vector<double> &values, std::size_t width)
{
    static const char *kLevels[] = {"▁", "▂", "▃",
                                    "▄", "▅", "▆",
                                    "▇", "█"};
    if (values.empty())
        return "";
    const std::vector<double> series = downsample(values, width);
    const double lo = *std::min_element(series.begin(), series.end());
    const double hi = *std::max_element(series.begin(), series.end());
    std::string out;
    for (double v : series) {
        const double frac =
            hi > lo ? (v - lo) / (hi - lo) : 0.0;
        const auto level = static_cast<std::size_t>(
            std::min(7.0, std::max(0.0, frac * 7.999)));
        out += kLevels[level];
    }
    return out;
}

} // namespace gaia
