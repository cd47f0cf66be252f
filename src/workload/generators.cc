#include "workload/generators.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace gaia {

namespace {

/** Clamp a sampled length into a sane absolute range. */
Seconds
clampLength(double seconds, Seconds lo, Seconds hi)
{
    const double clamped =
        std::clamp(seconds, static_cast<double>(lo),
                   static_cast<double>(hi));
    return static_cast<Seconds>(clamped);
}

/** Alibaba-PAI scale classes: tiny, small, medium, large. */
constexpr std::array<double, 4> kAlibabaClassWeights = {0.38, 0.37,
                                                        0.238, 0.012};
/** Alibaba-PAI medium-class CPU demand: 2, 4, 6 or 8. */
constexpr std::array<double, 4> kAlibabaMediumCpuWeights = {
    0.55, 0.30, 0.10, 0.05};
/** Azure-VM lifetime classes: short-lived, daily, long-running. */
constexpr std::array<double, 3> kAzureClassWeights = {0.42, 0.34,
                                                      0.24};

/** Log-normal with a median expressed in seconds. */
double
lognormalSeconds(Rng &rng, double median_seconds, double sigma)
{
    return rng.lognormal(std::log(median_seconds), sigma);
}

/**
 * Alibaba-PAI joint model. Latent scale classes couple length and
 * CPU demand; the "tiny" class reproduces the pre-filter mass of
 * sub-5-minute jobs the paper reports (38% of jobs, 0.36% of
 * compute).
 */
Job
sampleAlibaba(Rng &rng)
{
    Job job;
    const std::size_t cls = rng.discrete(kAlibabaClassWeights);
    switch (cls) {
      case 0: // tiny: mostly filtered out downstream
        job.length = clampLength(
            lognormalSeconds(rng, 1.6 * kSecondsPerMinute, 0.8),
            Seconds{1}, 5 * kSecondsPerDay);
        job.cpus = 1;
        break;
      case 1: // small: interactive-scale training/inference tasks
        job.length = clampLength(
            lognormalSeconds(rng, 25 * kSecondsPerMinute, 1.0),
            Seconds{1}, 5 * kSecondsPerDay);
        job.cpus = rng.bernoulli(0.3) ? 2 : 1;
        break;
      case 2: // medium: the compute-dominant 1–24 h band
        job.length = clampLength(
            lognormalSeconds(rng, 2.6 * kSecondsPerHour, 0.9),
            Seconds{1}, 5 * kSecondsPerDay);
        job.cpus = static_cast<int>(
            2 + rng.discrete(kAlibabaMediumCpuWeights) * 2);
        break;
      default: // large: wide multi-GPU jobs
        job.length = clampLength(
            lognormalSeconds(rng, 9.0 * kSecondsPerHour, 0.8),
            Seconds{1}, 5 * kSecondsPerDay);
        job.cpus = static_cast<int>(
            std::clamp(std::round(rng.lognormal(std::log(10.0), 0.7)),
                       8.0, 100.0));
        break;
    }
    return job;
}

/**
 * Azure-VM joint model: VM lifetimes with a long multi-day tail and
 * small per-VM core buckets; the tail carries most of the compute,
 * which is why the paper finds the least temporal flexibility here.
 */
Job
sampleAzure(Rng &rng)
{
    Job job;
    const std::size_t cls = rng.discrete(kAzureClassWeights);
    switch (cls) {
      case 0:
        job.length = clampLength(
            lognormalSeconds(rng, 30 * kSecondsPerMinute, 1.2),
            Seconds{1}, 6 * kSecondsPerDay);
        break;
      case 1:
        job.length = clampLength(
            lognormalSeconds(rng, 4.0 * kSecondsPerHour, 1.0),
            Seconds{1}, 6 * kSecondsPerDay);
        break;
      default:
        job.length = clampLength(
            lognormalSeconds(rng, 28.0 * kSecondsPerHour, 0.8),
            Seconds{1}, 6 * kSecondsPerDay);
        break;
    }
    job.cpus = rng.bernoulli(0.25) ? 2 : 1;
    return job;
}

/**
 * Mustang-HPC joint model: MPI jobs on 24-core nodes — wide node
 * counts, lengths hard-capped at 16 hours (the trace's documented
 * maximum), and a mean length representative of the whole trace.
 */
Job
sampleMustang(Rng &rng)
{
    Job job;
    job.length = clampLength(
        lognormalSeconds(rng, 2.5 * kSecondsPerHour, 0.75),
        Seconds{1}, 16 * kSecondsPerHour);
    job.cpus = static_cast<int>(
        std::clamp(std::round(rng.lognormal(std::log(8.0), 1.0)), 1.0,
                   96.0));
    return job;
}

/**
 * Hourly arrival weights over the span for a nonhomogeneous
 * Poisson process; arrivals are drawn bin-weighted and placed
 * uniformly within their hour.
 */
std::vector<double>
arrivalWeights(const ArrivalPattern &pattern, Seconds span,
               Rng &rng)
{
    const auto bins =
        static_cast<std::size_t>((span + kSecondsPerHour - 1) /
                                 kSecondsPerHour);
    std::vector<double> weights;
    weights.reserve(bins);
    double burst = 1.0;
    for (std::size_t h = 0; h < bins; ++h) {
        const Seconds t = static_cast<Seconds>(h) * kSecondsPerHour;
        if (pattern.burst_block > 0 &&
            t % pattern.burst_block == 0) {
            burst = rng.lognormal(0.0, pattern.burst_sigma);
        }
        // Working-hours shape peaking mid-afternoon.
        const double hod = static_cast<double>(hourOfDay(t));
        const double diurnal =
            1.0 + pattern.diurnal_amp *
                      std::cos(2.0 * M_PI * (hod - 15.0) / 24.0);
        const bool weekend = (dayOf(t) % 7) >= 5;
        const double weekly =
            weekend ? 1.0 - pattern.weekend_drop : 1.0;
        weights.push_back(std::max(diurnal, 0.05) * weekly * burst);
    }
    return weights;
}

/**
 * std::upper_bound over a non-decreasing cumulative weight array in
 * O(1) expected time, by a guide table (Chen and Asau). guide_[k] is
 * the first index whose weight has key() at least k, and key() is one
 * monotone function of a value on both the build and the query side.
 * Every index before guide_[key(u)] therefore holds a weight below u,
 * so the forward scan from there stops exactly where upper_bound
 * would, past-the-end included: the answer is the same bin, not an
 * approximation of it.
 */
class UpperBoundIndex
{
  public:
    explicit UpperBoundIndex(const std::vector<double> &cumulative)
        : cumulative_(cumulative),
          scale_(static_cast<double>(cumulative.size()) /
                 cumulative.back()),
          guide_(cumulative.size() + 1)
    {
        std::size_t i = 0;
        for (std::size_t k = 0; k < guide_.size(); ++k) {
            while (i < cumulative_.size() && key(cumulative_[i]) < k)
                ++i;
            guide_[k] = i;
        }
    }

    /** std::upper_bound(cumulative, u) - cumulative.begin(). */
    std::size_t find(double u) const
    {
        std::size_t i = guide_[key(u)];
        while (i < cumulative_.size() && cumulative_[i] <= u)
            ++i;
        return i;
    }

  private:
    /** Monotone in v >= 0: a rounded product, a clamp, a floor. */
    std::size_t key(double v) const
    {
        return static_cast<std::size_t>(std::min(
            v * scale_, static_cast<double>(guide_.size() - 1)));
    }

    const std::vector<double> &cumulative_;
    double scale_;
    std::vector<std::size_t> guide_;
};

/**
 * Sort arrivals that fall in `bins` hourly bins: a counting sort by
 * hour, then a sort within each hour. Hours are disjoint and ordered,
 * so this equals sorting the whole vector, at a fraction of the cost.
 */
void
sortByHour(std::vector<Seconds> &arrivals, std::size_t bins)
{
    const auto hour = [](Seconds t) {
        return static_cast<std::size_t>(t / kSecondsPerHour);
    };
    std::vector<std::size_t> begin(bins + 1, 0);
    for (const Seconds t : arrivals)
        ++begin[hour(t) + 1];
    std::partial_sum(begin.begin(), begin.end(), begin.begin());
    std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
    std::vector<Seconds> sorted(arrivals.size());
    for (const Seconds t : arrivals)
        sorted[next[hour(t)]++] = t;
    for (std::size_t b = 0; b < bins; ++b)
        std::sort(sorted.begin() + begin[b], sorted.begin() + begin[b + 1]);
    arrivals = std::move(sorted);
}

} // namespace

ArrivalPattern
arrivalPattern(WorkloadSource source)
{
    // Calibrated so the hourly demand CoV reproduces §6.4.4:
    // Mustang-HPC is bursty (campaign-style MPI submissions,
    // CoV ~0.8); Azure-VM is smooth (CoV ~0.3); Alibaba-PAI sits
    // in between.
    switch (source) {
      case WorkloadSource::AlibabaPai:
        return {0.35, 0.20, 0.45, 6 * kSecondsPerHour};
      case WorkloadSource::AzureVm:
        return {0.18, 0.08, 0.30, 6 * kSecondsPerHour};
      case WorkloadSource::MustangHpc:
        return {0.40, 0.35, 0.70, 8 * kSecondsPerHour};
    }
    panic("unknown workload source");
}

std::string
workloadName(WorkloadSource source)
{
    switch (source) {
      case WorkloadSource::AlibabaPai:
        return "Alibaba-PAI";
      case WorkloadSource::AzureVm:
        return "Azure-VM";
      case WorkloadSource::MustangHpc:
        return "Mustang-HPC";
    }
    panic("unknown workload source");
}

WorkloadModel::WorkloadModel(WorkloadSource source) : source_(source)
{
}

Job
WorkloadModel::sample(Rng &rng) const
{
    switch (source_) {
      case WorkloadSource::AlibabaPai:
        return sampleAlibaba(rng);
      case WorkloadSource::AzureVm:
        return sampleAzure(rng);
      case WorkloadSource::MustangHpc:
        return sampleMustang(rng);
    }
    panic("unknown workload source");
}

Result<JobTrace>
buildTrace(WorkloadSource source, const TraceBuildOptions &options)
{
    GAIA_REQUIRE(options.job_count > 0, "empty trace requested");
    GAIA_REQUIRE(options.job_count <= kMaxJobs, "job count ",
                 options.job_count, " exceeds the limit of ", kMaxJobs);
    GAIA_REQUIRE(options.span > 0, "non-positive trace span ",
                 options.span);
    GAIA_REQUIRE(options.min_length <= options.max_length,
                 "min_length ", options.min_length,
                 " exceeds max_length ", options.max_length);

    const WorkloadModel model(source);
    Rng rng(options.seed);

    std::vector<Job> jobs;
    jobs.reserve(options.job_count);

    // Rejection-sample the paper's filter: re-draw until job_count
    // survivors. A hard attempt cap guards against impossible
    // filters (e.g. max_length below the model's minimum).
    const std::size_t max_attempts = options.job_count * 1000;
    std::size_t attempts = 0;
    while (jobs.size() < options.job_count) {
        if (++attempts > max_attempts) {
            return Status::failedPrecondition(
                "workload filter for ", workloadName(source),
                " rejected ", attempts, " consecutive samples; ",
                "filters are unsatisfiable");
        }
        Job job = model.sample(rng);
        if (job.length < options.min_length ||
            job.length > options.max_length)
            continue;
        if (options.max_cpus > 0 && job.cpus > options.max_cpus)
            continue;
        job.id = static_cast<JobId>(jobs.size());
        jobs.push_back(job);
    }

    // Nonhomogeneous Poisson arrivals conditioned on the count:
    // sample each arrival's hour from the intensity weights, then
    // place it uniformly within the hour.
    const std::vector<double> weights =
        arrivalWeights(arrivalPattern(source), options.span, rng);
    std::vector<double> cumulative(weights.size());
    std::partial_sum(weights.begin(), weights.end(),
                     cumulative.begin());
    const double total_weight = cumulative.back();
    const UpperBoundIndex bin_of(cumulative);
    std::vector<Seconds> arrivals;
    arrivals.reserve(options.job_count);
    for (std::size_t i = 0; i < options.job_count; ++i) {
        const double u = rng.uniform() * total_weight;
        const auto bin = static_cast<Seconds>(bin_of.find(u));
        const Seconds start = bin * kSecondsPerHour;
        const Seconds end = std::min<Seconds>(
            start + kSecondsPerHour, options.span);
        arrivals.push_back(rng.uniformInt(start, end - 1));
    }
    sortByHour(arrivals, weights.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        jobs[i].submit = arrivals[i];

    return JobTrace(workloadName(source), std::move(jobs));
}

JobTrace
makeYearTrace(WorkloadSource source, std::uint64_t seed)
{
    TraceBuildOptions options;
    options.job_count = 100000;
    options.span = kSecondsPerYear;
    options.seed = seed;
    // Calibrated defaults are satisfiable by construction, so the
    // Result cannot hold an error here.
    return buildTrace(source, options).value();
}

JobTrace
makeWeekTrace(std::uint64_t seed)
{
    TraceBuildOptions options;
    options.job_count = 1000;
    options.span = kSecondsPerWeek;
    options.max_cpus = 4; // paper: budgetary cap for the testbed
    options.seed = seed;
    return buildTrace(WorkloadSource::AlibabaPai, options).value();
}

JobTrace
makeMotivatingTrace(Seconds span, std::uint64_t seed)
{
    GAIA_ASSERT(span > 0, "non-positive trace span");
    Rng rng(seed);
    std::vector<Job> jobs;
    Seconds t = 0;
    JobId id = 0;
    while (true) {
        t += static_cast<Seconds>(
            rng.exponential(48.0 * kSecondsPerMinute));
        if (t >= span)
            break;
        Job job;
        job.id = id++;
        job.submit = t;
        job.length = std::max<Seconds>(
            static_cast<Seconds>(
                rng.exponential(4.0 * kSecondsPerHour)),
            kSecondsPerMinute);
        job.cpus = 1;
        jobs.push_back(job);
    }
    return JobTrace("Motivating", std::move(jobs));
}

} // namespace gaia
