/**
 * @file
 * Batch jobs and job traces.
 *
 * A Job is the unit of scheduling: it arrives at `submit`, needs
 * `cpus` cores for `length` seconds of uninterrupted execution (or
 * the same total across segments under suspend-resume policies), and
 * belongs to a queue derived from its length bound.
 *
 * A JobTrace is an arrival-ordered sequence of jobs, the simulator's
 * workload input — either synthesized by gaia::workload generators or
 * loaded from CSV.
 */

#ifndef GAIA_WORKLOAD_JOB_H
#define GAIA_WORKLOAD_JOB_H

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "workload/elastic_profile.h"

namespace gaia {

/** Unique job identifier within one trace. */
using JobId = std::int64_t;

/**
 * Most jobs one run may hold: the engine packs a job's index into 32
 * bits of each event payload, and one past it into the 32-bit end of
 * an arrival-lane run.
 */
constexpr std::size_t kMaxJobs = 0xffffffffu;

/**
 * Most CPU cores one job may demand. Times the widest elastic gang
 * it stays far inside an int, so the engine's per-slice core count
 * (cpus x width) cannot overflow.
 */
constexpr int kMaxJobCpus = 1 << 20;
static_assert(static_cast<std::int64_t>(kMaxJobCpus) *
                  kMaxElasticInstances <=
              std::numeric_limits<int>::max());

/**
 * One batch job. `length` measures single-instance work: under the
 * run's elastic profile (PlanContext::elastic) a job finishing at
 * width > 1 completes sooner.
 */
struct Job
{
    JobId id = 0;
    /** Arrival (submission) time. */
    Seconds submit = 0;
    /** Actual execution length; not known to most policies. */
    Seconds length = 0;
    /** CPU cores demanded for the whole execution. */
    int cpus = 1;
    /**
     * Explicit queue index chosen by the submitting user; -1 (the
     * default) means "classify by actual length", the paper's
     * accurate-users assumption. A non-negative hint lets
     * experiments model queue misclassification.
     */
    int queue_hint = -1;

    /** Core-seconds of compute this job performs. */
    double coreSeconds() const
    {
        return static_cast<double>(length) * cpus;
    }
};

/**
 * OK when `job` can be scheduled: a submit time in [0,
 * kMaxInputDuration], a length in (0, kMaxInputDuration] and a CPU
 * demand in [1, kMaxJobCpus]. The one rule for every job from
 * outside the program (JobTrace::make, the serving daemon), and
 * OnlineScheduler::submit applies it again. The time bounds keep a
 * job's window within two centuries, so integrating it past the end
 * of the carbon trace stays cheap, and let the engine's outcome
 * record hold the length in 32 bits.
 */
Status validateJob(const Job &job);

/**
 * Arrival-ordered collection of jobs. The sorted, validated jobs are
 * held behind a shared pointer, the way CarbonTrace keeps its tables:
 * copying a trace costs one reference-count bump, and a simulation
 * result keeps the column it was run on alive (sharedJobs()).
 */
class JobTrace
{
  public:
    /**
     * Jobs are sorted by submit time on construction. Every job
     * must pass validateJob(); the constructor asserts this —
     * untrusted job lists (CSV loads) must go through make().
     */
    JobTrace(std::string name, std::vector<Job> jobs);

    /** Validating factory for untrusted job lists. */
    static Result<JobTrace> make(std::string name,
                                 std::vector<Job> jobs);

    const std::string &name() const { return name_; }
    std::size_t jobCount() const { return jobs_->size(); }
    bool empty() const { return jobs_->empty(); }
    const std::vector<Job> &jobs() const { return *jobs_; }
    /** The jobs themselves, shared rather than copied: what
     *  OnlineScheduler::replay() runs and a result carries. */
    const std::shared_ptr<const std::vector<Job>> &sharedJobs() const
    {
        return jobs_;
    }
    const Job &job(std::size_t i) const;

    /** Time of the last arrival (0 for an empty trace). */
    Seconds lastArrival() const;

    /**
     * Arrival span plus the longest job: an upper bound on when the
     * cluster could still be busy under a no-wait schedule.
     */
    Seconds busyHorizon() const;

    /** Sum of core-seconds across all jobs. */
    double totalCoreSeconds() const;

    /**
     * Mean concurrent CPU demand: total core-seconds divided by the
     * arrival span. This is the quantity the paper sizes reserved
     * capacity against ("R selected as the trace's mean demand").
     */
    double meanDemand() const;

    /** New trace with only jobs satisfying all filters applied. */
    JobTrace filtered(Seconds min_length, Seconds max_length,
                      int max_cpus /* 0 = unlimited */) const;

    /** Serialize (columns: id, submit, length, cpus); an error when
     *  `path` cannot be opened for writing. */
    Status toCsv(const std::string &path) const;

    /** Load a trace written by toCsv(). */
    static Result<JobTrace> fromCsv(const std::string &path,
                                    const std::string &name);

  private:
    /** OK when every job passes validateJob(). */
    static Status validateJobs(const std::string &name,
                               const std::vector<Job> &jobs);

    std::string name_;
    std::shared_ptr<const std::vector<Job>> jobs_;
};

} // namespace gaia

#endif // GAIA_WORKLOAD_JOB_H
