#include "workload/job.h"

#include <algorithm>

#include "common/csv.h"
#include "common/logging.h"
#include "common/strings.h"

namespace gaia {

Status
validateJob(const Job &job)
{
    GAIA_REQUIRE(job.submit >= 0, "job ", job.id,
                 " has negative submit time ", job.submit);
    GAIA_REQUIRE(job.submit <= kMaxInputDuration, "job ", job.id,
                 " has submit time ", job.submit, " past the ",
                 kMaxInputDuration, " s limit");
    GAIA_REQUIRE(job.length > 0, "job ", job.id,
                 " has non-positive length ", job.length);
    GAIA_REQUIRE(job.length <= kMaxInputDuration, "job ", job.id,
                 " has length ", job.length, " past the ",
                 kMaxInputDuration, " s limit");
    GAIA_REQUIRE(job.cpus > 0, "job ", job.id,
                 " has non-positive cpu demand ", job.cpus);
    GAIA_REQUIRE(job.cpus <= kMaxJobCpus, "job ", job.id,
                 " has cpu demand ", job.cpus, " past the ", kMaxJobCpus,
                 " limit");
    return Status::ok();
}

Status
JobTrace::validateJobs(const std::string &name,
                       const std::vector<Job> &jobs)
{
    for (const Job &j : jobs) {
        const Status valid = validateJob(j);
        GAIA_REQUIRE(valid.isOk(), "trace '", name, "': ",
                     valid.message());
    }
    return Status::ok();
}

JobTrace::JobTrace(std::string name, std::vector<Job> jobs)
    : name_(std::move(name))
{
    // Synthesized traces arrive in order already; checking is far
    // cheaper than a stable sort of a year of jobs.
    const auto by_submit = [](const Job &a, const Job &b) {
        return a.submit < b.submit;
    };
    if (!std::is_sorted(jobs.begin(), jobs.end(), by_submit))
        std::stable_sort(jobs.begin(), jobs.end(), by_submit);
    const Status valid = validateJobs(name_, jobs);
    GAIA_ASSERT(valid.isOk(), "invalid job list passed to the ",
                "constructor (use JobTrace::make for untrusted ",
                "data): ", valid.message());
    jobs_ = std::make_shared<const std::vector<Job>>(std::move(jobs));
}

Result<JobTrace>
JobTrace::make(std::string name, std::vector<Job> jobs)
{
    GAIA_TRY(validateJobs(name, jobs));
    return JobTrace(std::move(name), std::move(jobs));
}

const Job &
JobTrace::job(std::size_t i) const
{
    GAIA_ASSERT(i < jobs_->size(), "job index out of range: ", i);
    return (*jobs_)[i];
}

Seconds
JobTrace::lastArrival() const
{
    return jobs_->empty() ? 0 : jobs_->back().submit;
}

Seconds
JobTrace::busyHorizon() const
{
    Seconds max_len = 0;
    for (const Job &j : *jobs_)
        max_len = std::max(max_len, j.length);
    return lastArrival() + max_len;
}

double
JobTrace::totalCoreSeconds() const
{
    double total = 0.0;
    for (const Job &j : *jobs_)
        total += j.coreSeconds();
    return total;
}

double
JobTrace::meanDemand() const
{
    const Seconds span = lastArrival();
    if (span <= 0)
        return 0.0;
    return totalCoreSeconds() / static_cast<double>(span);
}

JobTrace
JobTrace::filtered(Seconds min_length, Seconds max_length,
                   int max_cpus) const
{
    std::vector<Job> kept;
    kept.reserve(jobs_->size());
    for (const Job &j : *jobs_) {
        if (j.length < min_length || j.length > max_length)
            continue;
        if (max_cpus > 0 && j.cpus > max_cpus)
            continue;
        kept.push_back(j);
    }
    return JobTrace(name_, std::move(kept));
}

Status
JobTrace::toCsv(const std::string &path) const
{
    GAIA_TRY_ASSIGN(CsvWriter writer,
                    CsvWriter::open(path, {"id", "submit", "length",
                                           "cpus"}));
    for (const Job &j : *jobs_) {
        writer.writeRow({std::to_string(j.id),
                         std::to_string(j.submit),
                         std::to_string(j.length),
                         std::to_string(j.cpus)});
    }
    return Status::ok();
}

Result<JobTrace>
JobTrace::fromCsv(const std::string &path, const std::string &name)
{
    GAIA_TRY_ASSIGN(const CsvTable table, tryReadCsv(path));
    GAIA_TRY_ASSIGN(const std::size_t id_col,
                    table.tryColumnIndex("id"));
    GAIA_TRY_ASSIGN(const std::size_t submit_col,
                    table.tryColumnIndex("submit"));
    GAIA_TRY_ASSIGN(const std::size_t length_col,
                    table.tryColumnIndex("length"));
    GAIA_TRY_ASSIGN(const std::size_t cpus_col,
                    table.tryColumnIndex("cpus"));

    std::vector<Job> jobs;
    jobs.reserve(table.rowCount());
    for (std::size_t r = 0; r < table.rowCount(); ++r) {
        Job j;
        GAIA_TRY_ASSIGN(j.id, table.tryCellInt(r, id_col));
        GAIA_TRY_ASSIGN(j.submit, table.tryCellInt(r, submit_col));
        GAIA_TRY_ASSIGN(j.length, table.tryCellInt(r, length_col));
        GAIA_TRY_ASSIGN(const std::int64_t cpus,
                        table.tryCellInt(r, cpus_col));
        GAIA_TRY_ASSIGN(j.cpus,
                        tryNarrowInt(cpus, table.name() + ": row " +
                                               std::to_string(r) +
                                               ", column 'cpus'"));
        jobs.push_back(j);
    }
    return make(name, std::move(jobs));
}

} // namespace gaia
