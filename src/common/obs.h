/**
 * @file
 * gaia::obs — low-overhead observability: a process-wide metrics
 * registry and a scoped-span tracer.
 *
 * The sweep engine, plan cache, and simulator run the hot
 * path of every figure sweep, and after the PR 2–3 optimizations
 * none of that work is visible at runtime: there was no way to see
 * where a sweep's wall-clock goes, how the PlanCache hit rate
 * behaves across policies, or why one cell is slow. gaia::obs is
 * the telemetry layer those questions need, built so that having it
 * compiled in costs nothing measurable when no sink is requested:
 *
 *  - **Metrics** — named Counters and Histograms owned by a
 *    process-wide MetricsRegistry. A counter is one relaxed
 *    atomic on a cache line of its own, bumped once per cell or run
 *    (or by the daemon's one consumer thread), so increments never
 *    contend. Instrumented subsystems hold references to their
 *    metrics at namespace scope, so the per-event cost is exactly
 *    the atomic op.
 *
 *  - **Tracing** — Span objects bracket a region of interest and
 *    append a Chrome/Perfetto `trace_event` record (`"ph":"X"`) to
 *    a per-thread ring buffer. Tracing is off by default: a
 *    disabled Span construct/destruct is one relaxed atomic load
 *    and a branch, no clock read, no allocation. Rings are bounded
 *    (oldest events overwritten; overwrites counted), so tracing a
 *    multi-million-job sweep cannot exhaust memory.
 *
 *  - **Detailed timing** — a few instrumentation points (PlanCache
 *    miss fill time) need clock reads that are individually cheap
 *    but sit on paths hot enough to matter in aggregate. They are
 *    gated on detailedTimingEnabled(), switched on only when a
 *    sink was requested (--metrics-out, --trace-out or --verbose;
 *    see startSinks).
 *
 * Thread-safety: every entry point is safe from any thread.
 * Counter/Histogram updates are lock-free; registry lookups
 * (obs::counter() etc.) take the registry mutex and should be
 * hoisted out of hot loops by keeping the returned reference.
 * Registered metrics live for the process — references never
 * dangle. writeTraceJson/metricsSnapshot may run concurrently with
 * updates; they see a consistent-enough view for reporting (each
 * value is read atomically).
 *
 * Span names must be string literals (the pointer is stored, not
 * the characters); the optional label is copied.
 */

#ifndef GAIA_COMMON_OBS_H
#define GAIA_COMMON_OBS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace gaia::obs {

namespace detail {

/** Tracer master switch; read per Span construction. */
extern std::atomic<bool> tracing_enabled;

/** Gate for clock-heavy instrumentation (see header comment). */
extern std::atomic<bool> detailed_timing;

/** Microseconds since the process-wide trace epoch. */
std::uint64_t nowMicros();

/** Append one completed span to the calling thread's ring. */
void recordSpan(const char *name, std::string &&label,
                std::uint64_t start_us, std::uint64_t end_us);

} // namespace detail

/**
 * Monotonic event counter. add() is lock-free: one relaxed
 * fetch_add. value() is exact once writers quiesce.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    /** A cache line of its own: the daemon's consumer bumps a
     *  counter per job, and an unpadded counter sharing its line
     *  with other hot data slowed the consumer enough to deepen the
     *  submission queue (4.5% more peak RSS on bench/perf's
     *  serve_stream, 4-vCPU Xeon). */
    alignas(64) std::atomic<std::uint64_t> value_{0};
};

/**
 * Power-of-two-bucket histogram of non-negative samples (wall-time
 * seconds, sizes…). observe() is lock-free: an atomic count per
 * log2 bucket plus atomic sum/min/max. Quantiles reported from a
 * snapshot are bucket-resolution estimates (within a factor of 2),
 * clamped to the exact observed [min, max].
 */
class Histogram
{
  public:
    /** Bucket b spans [2^(b-kBucketBias-1), 2^(b-kBucketBias)). */
    static constexpr int kBuckets = 64;
    static constexpr int kBucketBias = 31;

    Histogram() = default;
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double value);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    double min() const;
    double max() const;

    /** Bucket-resolution quantile estimate, q in [0, 1]. */
    double quantile(double q) const;

    void reset();

  private:
    static int bucketFor(double value);

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
    /** min_/max_ are meaningless until the first observe(). */
    std::atomic<bool> any_{false};
};

/** One counter's name and aggregated value. */
struct CounterSnapshot
{
    std::string name;
    std::uint64_t value = 0;
};

/** One histogram's aggregate statistics. */
struct HistogramSnapshot
{
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** Point-in-time aggregation of every registered metric, sorted by
 *  name within each kind. */
struct MetricsSnapshot
{
    std::vector<CounterSnapshot> counters;
    std::vector<HistogramSnapshot> histograms;

    /** The named counter's value, or 0 when absent. */
    std::uint64_t counterValue(std::string_view name) const;
};

/**
 * Process-wide, name-keyed home of every metric. Metrics are
 * created on first lookup and live for the process, so returned
 * references may be cached at namespace scope (the instrumented
 * subsystems do exactly that).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter &counter(std::string_view name);
    Histogram &histogram(std::string_view name);

    MetricsSnapshot snapshot() const;

    /** Zero every registered metric (tests). Registrations — and
     *  cached references — survive. */
    void reset();

  private:
    MetricsRegistry() = default;
    ~MetricsRegistry() = default;

    struct Impl;
    Impl &impl() const;
};

/** Shorthands for MetricsRegistry::instance() lookups. */
Counter &counter(std::string_view name);
Histogram &histogram(std::string_view name);

/** Snapshot of the process-wide registry. */
MetricsSnapshot metricsSnapshot();

/** Zero every metric in the process-wide registry (tests). */
void resetMetrics();

/** Serialize a snapshot as a stable, pretty-printed JSON object
 *  ({"counters": {...}, "histograms": {...}}). */
void writeMetricsJson(std::ostream &out,
                      const MetricsSnapshot &snapshot);

/** Snapshot the registry and write it to `path`; false on I/O
 *  error (reported to stderr). */
bool writeMetricsJson(const std::string &path);

/** Human-readable aligned table of a snapshot (--verbose). */
void printMetricsSummary(std::ostream &out,
                         const MetricsSnapshot &snapshot);

/**
 * Start the sinks a driver's flags ask for, by one rule: a metrics
 * path, a trace path or `verbose` turns on detailed timing and names
 * the calling thread's track "main", and a trace path also turns on
 * spans. With no sink asked for, nothing changes.
 */
void startSinks(const std::string &metrics_out,
                const std::string &trace_out, bool verbose);

/**
 * Write the sinks startSinks() started: the metrics JSON and the
 * trace JSON to their paths (each when non-empty), then, when
 * `verbose`, a blank line and the metrics summary table to `out`.
 * False when a file could not be written (reported to stderr).
 */
bool writeSinks(const std::string &metrics_out,
                const std::string &trace_out, bool verbose,
                std::ostream &out);

/** Whether Spans currently record (default off). */
inline bool
tracingEnabled()
{
    return detail::tracing_enabled.load(std::memory_order_relaxed);
}

/** Turn span recording on or off at runtime. */
void setTracingEnabled(bool enabled);

/** Whether clock-heavy instrumentation points run (default off). */
inline bool
detailedTimingEnabled()
{
    return detail::detailed_timing.load(std::memory_order_relaxed);
}

/** Enabled alongside any requested sink (--metrics-out /
 *  --trace-out); may also be toggled directly. */
void setDetailedTiming(bool enabled);

/**
 * Name the calling thread's trace track (e.g. "main"); shown as
 * the thread name in Perfetto, where unnamed tracks read
 * "thread N". Also forces the track, and its ring, to exist, so
 * named threads appear in the JSON even when they recorded no
 * spans.
 */
void setThreadTrackName(std::string name);

/**
 * Ring capacity (events per thread track) applied to tracks
 * created afterwards; existing tracks keep their rings. Default
 * 32768.
 */
void setTraceRingCapacity(std::size_t capacity);

/**
 * Scoped trace span: records one complete event covering its
 * lifetime on the calling thread's track. When tracing is disabled
 * at construction the span is inert — one relaxed load, no clock
 * read. Construct and destroy on the same thread.
 */
class Span
{
  public:
    explicit Span(const char *name)
        : name_(name), active_(tracingEnabled())
    {
        if (active_)
            start_us_ = detail::nowMicros();
    }

    /** As above with a per-span label (copied only when active). */
    Span(const char *name, const std::string &label)
        : name_(name), active_(tracingEnabled())
    {
        if (active_) {
            label_ = label;
            start_us_ = detail::nowMicros();
        }
    }

    ~Span()
    {
        if (active_)
            detail::recordSpan(name_, std::move(label_), start_us_,
                               detail::nowMicros());
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    std::string label_;
    std::uint64_t start_us_ = 0;
    bool active_;
};

/**
 * Serialize every recorded span as Chrome trace_event JSON
 * ({"traceEvents": [...]}) loadable by Perfetto and
 * chrome://tracing: one metadata record naming each thread track,
 * then the spans as complete ("ph":"X") events. Concurrent span
 * recording is tolerated; spans still in flight are absent.
 */
void writeTraceJson(std::ostream &out);

/** As above to `path`; false on I/O error (reported to stderr). */
bool writeTraceJson(const std::string &path);

/** Drop every recorded span (tests); tracks and names survive. */
void clearTrace();

/** Spans overwritten by ring wrap-around since the last clear. */
std::uint64_t traceDroppedSpans();

} // namespace gaia::obs

#endif // GAIA_COMMON_OBS_H
