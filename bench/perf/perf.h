/**
 * @file
 * Shared plumbing of the gaia_perf ledger: run options, the metric
 * report, pinned fingerprints, and timing helpers.
 *
 * Every layer is measured from outside the library: the workloads
 * time calls into public functions, wrap the policy and the carbon
 * source in bench-owned decorators, and read the gaia::obs counters
 * the library already keeps.
 */

#ifndef GAIA_BENCH_PERF_PERF_H
#define GAIA_BENCH_PERF_PERF_H

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/scenario.h"
#include "common/obs.h"

namespace gaia::perf {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point begin)
{
    return std::chrono::duration<double>(Clock::now() - begin).count();
}

/** Cell fingerprints pinned in bench/perf/fingerprints.txt. */
class Fingerprints
{
  public:
    Fingerprints() = default;
    /** Missing file = nothing pinned. */
    explicit Fingerprints(const std::string &path);

    std::optional<std::uint64_t> find(const std::string &set,
                                      std::uint64_t seed,
                                      const std::string &cell) const;

  private:
    std::map<std::string, std::uint64_t> pinned_;
};

/** Command-line settings of one workload run. */
struct Options
{
    std::string workload;
    /** Workload and carbon seeds are shifted by seed - 1. */
    std::uint64_t seed = 1;
    /**
     * Expected length of the measured phase. Each workload runs a
     * fixed count of passes or lifetimes, sized to take about this
     * long on the reference host, so parent and change do the same
     * work; the run fails when that work takes over kTimeoutFactor
     * times longer.
     */
    double seconds = 10.0;
    /** Per-layer run (decorators, spans) instead of end-to-end. */
    bool traced = false;
    /** Reduced sizes for the self-test. */
    bool quick = false;
    /** Worker threads: min(nproc, 4). */
    unsigned threads = 1;
    Fingerprints pins;
    /** Print `fingerprint <set> <seed> <cell> <hex>` lines. */
    bool emit_fingerprints = false;
};

/**
 * Metrics and operation counts of one run. An operation is a sweep
 * cell, a streamed job, or a drain; it fails on an error Status, a
 * fingerprint mismatch, an `err` reply, or a lost or rejected job.
 */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Count one operation; a false `ok` records a failure. */
    void check(bool ok, const std::string &what)
    {
        record(1, ok ? 0 : 1, what);
    }
    /** Count `attempted` operations of which `failed` failed. */
    void record(std::uint64_t attempted, std::uint64_t failed,
                const std::string &what);

    std::uint64_t attemptedCount() const { return attempted_; }
    std::uint64_t failedCount() const { return failed_; }
    /** Failed over attempted operations; 1 when nothing was tried. */
    double errorRate() const
    {
        return attempted_ > 0 ? static_cast<double>(failed_) /
                                    static_cast<double>(attempted_)
                              : 1.0;
    }

    /** `name value unit` lines on stdout. */
    void print() const;
    /** JSON report with run metadata; false on I/O error. */
    bool writeJson(const std::string &path, const Options &options) const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Checks a cell fingerprint against its pin and, when asked,
 *  prints it in the fingerprints.txt line format. */
void checkPinned(const Options &options, const std::string &cell,
                 std::uint64_t fingerprint, Report &report);

/**
 * How much longer than `Options::seconds` a measured phase may take
 * before the run fails: room for a slow shared host, while a 10 s
 * run still ends well inside the 180 s a benchmark run may take.
 */
inline constexpr double kTimeoutFactor = 4.0;

/**
 * Wall-clock limit of a measured phase: started at construction,
 * checked after each pass or lifetime. An expired limit records one
 * failed operation and returns false, so the loop stops early.
 */
class Deadline
{
  public:
    explicit Deadline(const Options &options)
        : limit_s_(kTimeoutFactor * options.seconds)
    {
    }

    bool check(Report &report) const
    {
        if (secondsSince(begin_) <= limit_s_)
            return true;
        report.check(false, "measured phase ran past " +
                                std::to_string(limit_s_) + " s");
        return false;
    }

  private:
    Clock::time_point begin_ = Clock::now();
    double limit_s_;
};

/** Fixed-width lowercase hex, as the control socket prints it. */
std::string hex(std::uint64_t value);

/** getrusage max RSS in MB. */
double peakRssMb();

/**
 * A trace span over one coarse call. The library opens a span per
 * plan() call, which would flood the per-thread rings, so tracing is
 * switched on only while a bench span is opened: the Perfetto trace
 * holds the bench's coarse spans alone.
 */
class CoarseSpan
{
  public:
    explicit CoarseSpan(const char *name, bool traced);

    CoarseSpan(const CoarseSpan &) = delete;
    CoarseSpan &operator=(const CoarseSpan &) = delete;

  private:
    std::optional<obs::Span> span_;
};

/** One labelled simulation cell; labels contain no spaces. */
struct Cell
{
    std::string label;
    ScenarioSpec spec;
};

/** Hourly carbon slots of the year-long figures (year + margin). */
inline constexpr std::size_t kYearSlots =
    static_cast<std::size_t>(kHoursPerYear) + 24 * 8;

/**
 * Per-layer ledger of `cells` (traced runs): asset build timings, one
 * detailed-timing SweepEngine pass (each cell queued as a group of
 * `replicas` copies), then `rounds` rounds of serial decorated runs
 * of every cell. Fails a cell whose decorated fingerprint differs
 * from the sweep's.
 */
void reportSimLayers(const Options &options,
                     const std::vector<Cell> &cells, unsigned replicas,
                     std::size_t rounds, Report &report);

/** Workload entry points (sim_workloads.cc, serve_workloads.cc). */
void runSimWorkload(const Options &options, Report &report);
void runServeStream(const Options &options, Report &report);
void runServeSocket(const Options &options, Report &report);

} // namespace gaia::perf

#endif // GAIA_BENCH_PERF_PERF_H
