/**
 * @file
 * Job queues and their system-wide scheduling parameters.
 *
 * Following the paper (§4.2), users submit jobs to a queue that
 * bounds how long the job may run (J^max) — the scheduler never
 * needs individual job lengths or per-job deadlines. Each queue also
 * carries a system-wide maximum waiting time W (the scheduler
 * guarantees execution starts no later than W after submission) and
 * a historical queue-wide average job length J_avg that the
 * Lowest-Window and Carbon-Time policies use as a coarse length
 * estimate.
 */

#ifndef GAIA_CORE_QUEUES_H
#define GAIA_CORE_QUEUES_H

#include <string>
#include <vector>

#include "common/time.h"
#include "workload/job.h"

namespace gaia {

/** One job queue's scheduling parameters. */
struct QueueSpec
{
    std::string name;
    /** Maximum job length admitted to this queue (J^max). */
    Seconds max_length = 0;
    /** Maximum waiting time before execution must begin (W). */
    Seconds max_wait = 0;
    /**
     * Historical queue-wide average job length (J_avg); 0 means
     * "uncalibrated", in which case queueFor() callers fall back to
     * half the queue bound.
     */
    Seconds avg_length = 0;

    /** J_avg with the uncalibrated fallback applied. */
    Seconds effectiveAvgLength() const;

    bool operator==(const QueueSpec &) const = default;
};

/**
 * Ordered set of queues (ascending length bounds). The last queue is
 * the catch-all for any longer job.
 */
class QueueConfig
{
  public:
    /** Queues are sorted by max_length on construction. */
    explicit QueueConfig(std::vector<QueueSpec> queues);

    std::size_t queueCount() const { return queues_.size(); }
    const QueueSpec &queue(std::size_t i) const;
    const std::vector<QueueSpec> &queues() const { return queues_; }

    /**
     * Queue for a job of the given length: the smallest queue whose
     * bound admits it (the last queue admits everything, mirroring
     * the paper's assumption that users classify correctly).
     */
    const QueueSpec &queueFor(Seconds job_length) const;

    /** Index variant of queueFor(). */
    std::size_t queueIndexFor(Seconds job_length) const;

    /**
     * Queue for a job, honouring an explicit queue_hint when set
     * (clamped to the valid range) and falling back to length-based
     * classification otherwise.
     */
    const QueueSpec &queueForJob(const Job &job) const;

    /** Largest max_wait across queues. */
    Seconds maxWait() const;

    /** Largest max_length across queues. */
    Seconds maxLength() const;

    /**
     * Set each queue's J_avg to the mean length of the trace's jobs
     * that map to it ("historical queue-wide average"). Queues that
     * receive no jobs keep their fallback.
     */
    void calibrateAverages(const JobTrace &trace);

    /**
     * The paper's default two-queue setup: a short queue
     * (J^max = 2 h, W = 6 h) and a long queue (J^max = 3 days,
     * W = 24 h).
     */
    static QueueConfig standardShortLong(
        Seconds short_wait = 6 * kSecondsPerHour,
        Seconds long_wait = 24 * kSecondsPerHour,
        Seconds short_bound = 2 * kSecondsPerHour,
        Seconds long_bound = 3 * kSecondsPerDay);

  private:
    std::vector<QueueSpec> queues_;
};

} // namespace gaia

#endif // GAIA_CORE_QUEUES_H
