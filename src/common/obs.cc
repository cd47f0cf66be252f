#include "common/obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/table.h"

namespace gaia::obs {

namespace detail {

std::atomic<bool> tracing_enabled{false};
std::atomic<bool> detailed_timing{false};

namespace {

std::chrono::steady_clock::time_point
traceEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

/** Touch the epoch early so timestamps start near zero. */
const auto epoch_initialized = traceEpoch();

} // namespace

std::uint64_t
nowMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - traceEpoch())
            .count());
}

} // namespace detail

// ---------------------------------------------------------------------------
// Histogram

int
Histogram::bucketFor(double value)
{
    if (!(value > 0.0))
        return 0;
    const int raw = std::ilogb(value) + kBucketBias + 1;
    return std::clamp(raw, 0, kBuckets - 1);
}

void
Histogram::observe(double value)
{
    buckets_[static_cast<std::size_t>(bucketFor(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);

    if (!any_.exchange(true, std::memory_order_acq_rel)) {
        min_.store(value, std::memory_order_relaxed);
        max_.store(value, std::memory_order_relaxed);
        return;
    }
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed))
        ;
}

double
Histogram::min() const
{
    return any_.load(std::memory_order_acquire)
               ? min_.load(std::memory_order_relaxed)
               : 0.0;
}

double
Histogram::max() const
{
    return any_.load(std::memory_order_acquire)
               ? max_.load(std::memory_order_relaxed)
               : 0.0;
}

double
Histogram::quantile(double q) const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(n - 1));

    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
        if (seen > rank) {
            // Report the bucket's upper edge, clamped to the exact
            // observed range so estimates never exceed reality.
            const double upper = std::ldexp(1.0, b - kBucketBias);
            return std::clamp(upper, min(), max());
        }
    }
    return max();
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
    any_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Impl
{
    mutable std::mutex mutex;
    // node-based maps: element addresses are stable across inserts,
    // which is what lets callers cache the returned references.
    std::map<std::string, Counter, std::less<>> counters;
    std::map<std::string, Histogram, std::less<>> histograms;
};

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Impl &
MetricsRegistry::impl() const
{
    // Leaked intentionally: instrumented subsystems may flush
    // metrics from destructors of other static-duration objects.
    static Impl *impl = new Impl;
    return *impl;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    auto it = state.counters.find(name);
    if (it == state.counters.end())
        it = state.counters.try_emplace(std::string(name)).first;
    return it->second;
}

Histogram &
MetricsRegistry::histogram(std::string_view name)
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    auto it = state.histograms.find(name);
    if (it == state.histograms.end())
        it = state.histograms.try_emplace(std::string(name)).first;
    return it->second;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);

    MetricsSnapshot snap;
    snap.counters.reserve(state.counters.size());
    for (const auto &[name, counter] : state.counters)
        snap.counters.push_back({name, counter.value()});

    snap.histograms.reserve(state.histograms.size());
    for (const auto &[name, hist] : state.histograms) {
        HistogramSnapshot h;
        h.name = name;
        h.count = hist.count();
        h.sum = hist.sum();
        h.min = hist.min();
        h.max = hist.max();
        h.p50 = hist.quantile(0.50);
        h.p95 = hist.quantile(0.95);
        h.p99 = hist.quantile(0.99);
        snap.histograms.push_back(std::move(h));
    }
    return snap;
}

void
MetricsRegistry::reset()
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    for (auto &[name, counter] : state.counters)
        counter.reset();
    for (auto &[name, hist] : state.histograms)
        hist.reset();
}

std::uint64_t
MetricsSnapshot::counterValue(std::string_view name) const
{
    for (const CounterSnapshot &c : counters)
        if (c.name == name)
            return c.value;
    return 0;
}

Counter &
counter(std::string_view name)
{
    return MetricsRegistry::instance().counter(name);
}

Histogram &
histogram(std::string_view name)
{
    return MetricsRegistry::instance().histogram(name);
}

MetricsSnapshot
metricsSnapshot()
{
    return MetricsRegistry::instance().snapshot();
}

void
resetMetrics()
{
    MetricsRegistry::instance().reset();
}

// ---------------------------------------------------------------------------
// Metrics serialization

namespace {

void
appendJsonEscaped(std::ostream &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
        case '"':
            out << "\\\"";
            break;
        case '\\':
            out << "\\\\";
            break;
        case '\n':
            out << "\\n";
            break;
        case '\t':
            out << "\\t";
            break;
        case '\r':
            out << "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    std::ostringstream out;
    out << std::setprecision(17) << value;
    return out.str();
}

} // namespace

void
writeMetricsJson(std::ostream &out, const MetricsSnapshot &snapshot)
{
    out << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
        out << (i ? ",\n    \"" : "\n    \"");
        appendJsonEscaped(out, snapshot.counters[i].name);
        out << "\": " << snapshot.counters[i].value;
    }
    out << (snapshot.counters.empty() ? "},\n" : "\n  },\n");

    out << "  \"histograms\": {";
    for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
        const HistogramSnapshot &h = snapshot.histograms[i];
        out << (i ? ",\n    \"" : "\n    \"");
        appendJsonEscaped(out, h.name);
        out << "\": {\"count\": " << h.count
            << ", \"sum\": " << jsonNumber(h.sum)
            << ", \"min\": " << jsonNumber(h.min)
            << ", \"max\": " << jsonNumber(h.max)
            << ", \"p50\": " << jsonNumber(h.p50)
            << ", \"p95\": " << jsonNumber(h.p95)
            << ", \"p99\": " << jsonNumber(h.p99) << "}";
    }
    out << (snapshot.histograms.empty() ? "}\n" : "\n  }\n");
    out << "}\n";
}

bool
writeMetricsJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "gaia: cannot open metrics sink %s\n",
                     path.c_str());
        return false;
    }
    writeMetricsJson(out, metricsSnapshot());
    out.flush();
    if (!out) {
        std::fprintf(stderr, "gaia: failed writing metrics to %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

void
printMetricsSummary(std::ostream &out, const MetricsSnapshot &snapshot)
{
    if (!snapshot.counters.empty()) {
        TextTable table("metrics", {"metric", "value"});
        for (const CounterSnapshot &c : snapshot.counters)
            table.addRow({c.name, std::to_string(c.value)});
        table.print(out);
    }
    if (!snapshot.histograms.empty()) {
        TextTable table(
            "histograms",
            {"histogram", "count", "sum", "p50", "p95", "max"});
        auto fmt = [](double v) {
            std::ostringstream s;
            s << std::setprecision(4) << v;
            return s.str();
        };
        for (const HistogramSnapshot &h : snapshot.histograms)
            table.addRow({h.name, std::to_string(h.count),
                          fmt(h.sum), fmt(h.p50), fmt(h.p95),
                          fmt(h.max)});
        table.print(out);
    }
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

/** One recorded complete span. */
struct TraceEvent
{
    const char *name = nullptr;
    std::string label;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
};

/**
 * One thread's span ring. Owned jointly by the recording thread
 * (thread_local shared_ptr) and the global track registry, so the
 * spans survive the thread's exit and appear in the final JSON.
 */
struct ThreadTrack
{
    explicit ThreadTrack(std::size_t capacity)
        : ring(capacity)
    {
    }

    std::mutex mutex;
    std::string name;
    std::vector<TraceEvent> ring;
    std::size_t next = 0;
    std::size_t used = 0;
    std::uint64_t dropped = 0;
};

struct TrackRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadTrack>> tracks;
    std::size_t ring_capacity = 32768;
};

TrackRegistry &
trackRegistry()
{
    static TrackRegistry *registry = new TrackRegistry;
    return *registry;
}

ThreadTrack &
thisThreadTrack()
{
    thread_local std::shared_ptr<ThreadTrack> track = [] {
        TrackRegistry &registry = trackRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        auto created =
            std::make_shared<ThreadTrack>(registry.ring_capacity);
        registry.tracks.push_back(created);
        return created;
    }();
    return *track;
}

} // namespace

namespace detail {

void
recordSpan(const char *name, std::string &&label,
           std::uint64_t start_us, std::uint64_t end_us)
{
    ThreadTrack &track = thisThreadTrack();
    std::lock_guard<std::mutex> lock(track.mutex);
    if (track.ring.empty())
        return;
    TraceEvent &slot = track.ring[track.next];
    if (track.used == track.ring.size())
        ++track.dropped;
    else
        ++track.used;
    slot.name = name;
    slot.label = std::move(label);
    slot.start_us = start_us;
    slot.dur_us = end_us > start_us ? end_us - start_us : 0;
    track.next = (track.next + 1) % track.ring.size();
}

} // namespace detail

void
setTracingEnabled(bool enabled)
{
    detail::tracing_enabled.store(enabled, std::memory_order_relaxed);
}

void
setDetailedTiming(bool enabled)
{
    detail::detailed_timing.store(enabled, std::memory_order_relaxed);
}

void
setThreadTrackName(std::string name)
{
    ThreadTrack &track = thisThreadTrack();
    std::lock_guard<std::mutex> lock(track.mutex);
    track.name = std::move(name);
}

void
setTraceRingCapacity(std::size_t capacity)
{
    TrackRegistry &registry = trackRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.ring_capacity = std::max<std::size_t>(capacity, 1);
}

void
writeTraceJson(std::ostream &out)
{
    // Snapshot the track list, then serialize each track under its
    // own lock; recording threads only block for their own track.
    std::vector<std::shared_ptr<ThreadTrack>> tracks;
    {
        TrackRegistry &registry = trackRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        tracks = registry.tracks;
    }

    out << "{\"traceEvents\": [";
    bool first = true;
    std::size_t tid = 0;
    for (const auto &track_ptr : tracks) {
        ++tid;
        ThreadTrack &track = *track_ptr;
        std::lock_guard<std::mutex> lock(track.mutex);

        out << (first ? "\n" : ",\n");
        first = false;
        out << R"({"ph": "M", "pid": 1, "tid": )" << tid
            << R"(, "name": "thread_name", "args": {"name": ")";
        if (track.name.empty())
            out << "thread " << tid;
        else
            appendJsonEscaped(out, track.name);
        out << "\"}}";

        // Oldest-first: the ring's logical start is `next` when
        // full, else index 0.
        const std::size_t size = track.used;
        const std::size_t begin =
            size == track.ring.size() ? track.next : 0;
        for (std::size_t i = 0; i < size; ++i) {
            const TraceEvent &event =
                track.ring[(begin + i) % track.ring.size()];
            out << ",\n"
                << R"({"ph": "X", "pid": 1, "tid": )" << tid
                << R"(, "ts": )" << event.start_us << R"(, "dur": )"
                << event.dur_us << R"(, "name": ")";
            appendJsonEscaped(out, event.name ? event.name : "span");
            out << "\"";
            if (!event.label.empty()) {
                out << R"(, "args": {"label": ")";
                appendJsonEscaped(out, event.label);
                out << "\"}";
            }
            out << "}";
        }
    }
    out << "\n]}\n";
}

bool
writeTraceJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "gaia: cannot open trace sink %s\n",
                     path.c_str());
        return false;
    }
    writeTraceJson(out);
    out.flush();
    if (!out) {
        std::fprintf(stderr, "gaia: failed writing trace to %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

void
clearTrace()
{
    std::vector<std::shared_ptr<ThreadTrack>> tracks;
    {
        TrackRegistry &registry = trackRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        tracks = registry.tracks;
    }
    for (const auto &track_ptr : tracks) {
        ThreadTrack &track = *track_ptr;
        std::lock_guard<std::mutex> lock(track.mutex);
        track.next = 0;
        track.used = 0;
        track.dropped = 0;
    }
}

std::uint64_t
traceDroppedSpans()
{
    std::vector<std::shared_ptr<ThreadTrack>> tracks;
    {
        TrackRegistry &registry = trackRegistry();
        std::lock_guard<std::mutex> lock(registry.mutex);
        tracks = registry.tracks;
    }
    std::uint64_t total = 0;
    for (const auto &track_ptr : tracks) {
        ThreadTrack &track = *track_ptr;
        std::lock_guard<std::mutex> lock(track.mutex);
        total += track.dropped;
    }
    return total;
}

void
startSinks(const std::string &metrics_out, const std::string &trace_out,
           bool verbose)
{
    if (metrics_out.empty() && trace_out.empty() && !verbose)
        return;
    setDetailedTiming(true);
    setThreadTrackName("main");
    if (!trace_out.empty())
        setTracingEnabled(true);
}

bool
writeSinks(const std::string &metrics_out, const std::string &trace_out,
           bool verbose, std::ostream &out)
{
    bool ok = true;
    if (!metrics_out.empty())
        ok &= writeMetricsJson(metrics_out);
    if (!trace_out.empty())
        ok &= writeTraceJson(trace_out);
    if (verbose) {
        out << "\n";
        printMetricsSummary(out, metricsSnapshot());
    }
    return ok;
}

} // namespace gaia::obs
