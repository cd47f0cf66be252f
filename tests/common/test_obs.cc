/**
 * @file
 * gaia::obs unit tests: metric correctness under concurrent
 * updates from parallelFor's threads (the hammer the instrumented
 * hot paths apply), snapshot/JSON integrity, and tracer output
 * validity including per-track well-nestedness and ring-buffer
 * bounds.
 */

#include "common/obs.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/parallel.h"
#include "json_lite.h"

namespace gaia {
namespace {

using testing::JsonParser;
using testing::JsonValue;

TEST(Counter, CountsAndResets)
{
    obs::Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, ExactUnderConcurrentIncrements)
{
    obs::Counter counter;
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 50000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                counter.add();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, ExactUnderParallelForHammer)
{
    // The real usage pattern: sweep cells bumping shared counters
    // from every parallelFor thread. Totals must be exact once the
    // loop returns.
    obs::Counter &counter =
        obs::counter("test_obs.hammer_counter");
    counter.reset();
    obs::Histogram &hist =
        obs::histogram("test_obs.hammer_hist");
    hist.reset();

    constexpr int kTasks = 64;
    constexpr std::uint64_t kPerTask = 5000;
    // The loop runs on its own thread so this one can snapshot
    // mid-hammer.
    std::thread hammer([&counter, &hist] {
        parallelFor(
            kTasks,
            [&counter, &hist](std::size_t) {
                for (std::uint64_t i = 0; i < kPerTask; ++i) {
                    counter.add();
                    hist.observe(1.0);
                }
            },
            4);
    });

    // Snapshots taken mid-hammer must never overshoot the final
    // total (counters are monotonic).
    const std::uint64_t mid = counter.value();
    hammer.join();
    const std::uint64_t total =
        static_cast<std::uint64_t>(kTasks) * kPerTask;
    EXPECT_LE(mid, total);
    EXPECT_EQ(counter.value(), total);
    EXPECT_EQ(hist.count(), total);
    EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(total));
}

TEST(Histogram, StatsAndQuantiles)
{
    obs::Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.quantile(0.5), 0.0);

    for (double v : {1.0, 2.0, 4.0, 8.0, 100.0})
        hist.observe(v);
    EXPECT_EQ(hist.count(), 5u);
    EXPECT_DOUBLE_EQ(hist.sum(), 115.0);
    EXPECT_DOUBLE_EQ(hist.min(), 1.0);
    EXPECT_DOUBLE_EQ(hist.max(), 100.0);

    // Quantiles are bucket-resolution estimates clamped to the
    // observed range, and must be monotone in q.
    const double p50 = hist.quantile(0.50);
    const double p95 = hist.quantile(0.95);
    EXPECT_GE(p50, hist.min());
    EXPECT_LE(p95, hist.max());
    EXPECT_LE(p50, p95);

    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.max(), 0.0);
}

TEST(Histogram, HandlesZeroAndSubnormalValues)
{
    obs::Histogram hist;
    hist.observe(0.0);
    hist.observe(1e-300);
    hist.observe(1e300);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.min(), 0.0);
    EXPECT_DOUBLE_EQ(hist.max(), 1e300);
}

TEST(MetricsRegistry, SameNameSameInstance)
{
    obs::Counter &a = obs::counter("test_obs.same_name");
    obs::Counter &b = obs::counter("test_obs.same_name");
    EXPECT_EQ(&a, &b);
    // Distinct kinds may share a name without aliasing.
    obs::Histogram &h = obs::histogram("test_obs.same_name");
    h.reset();
    h.observe(3.0);
    a.reset();
    a.add(5);
    EXPECT_EQ(b.value(), 5u);
    EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistry, SnapshotContainsRegisteredMetrics)
{
    obs::counter("test_obs.snap_counter").reset();
    obs::counter("test_obs.snap_counter").add(9);
    obs::histogram("test_obs.snap_hist").reset();
    obs::histogram("test_obs.snap_hist").observe(2.5);

    const obs::MetricsSnapshot snap = obs::metricsSnapshot();
    EXPECT_EQ(snap.counterValue("test_obs.snap_counter"), 9u);
    EXPECT_EQ(snap.counterValue("test_obs.never_registered"), 0u);

    // Sorted by name within each kind (std::map iteration order).
    EXPECT_TRUE(std::is_sorted(
        snap.counters.begin(), snap.counters.end(),
        [](const auto &x, const auto &y) {
            return x.name < y.name;
        }));

    bool found_hist = false;
    for (const obs::HistogramSnapshot &h : snap.histograms) {
        if (h.name == "test_obs.snap_hist") {
            found_hist = true;
            EXPECT_EQ(h.count, 1u);
            EXPECT_DOUBLE_EQ(h.sum, 2.5);
            EXPECT_DOUBLE_EQ(h.min, 2.5);
            EXPECT_DOUBLE_EQ(h.max, 2.5);
        }
    }
    EXPECT_TRUE(found_hist);
}

TEST(MetricsRegistry, ResetKeepsReferencesValid)
{
    obs::Counter &counter = obs::counter("test_obs.reset_me");
    counter.add(10);
    obs::resetMetrics();
    EXPECT_EQ(counter.value(), 0u);
    counter.add(2);
    EXPECT_EQ(obs::metricsSnapshot().counterValue(
                  "test_obs.reset_me"),
              2u);
}

TEST(MetricsJson, ParsesAndRoundTrips)
{
    obs::counter("test_obs.json \"quoted\"").reset();
    obs::counter("test_obs.json \"quoted\"").add(3);
    obs::histogram("test_obs.json_hist").reset();
    obs::histogram("test_obs.json_hist").observe(0.25);

    std::ostringstream out;
    obs::writeMetricsJson(out, obs::metricsSnapshot());
    const JsonValue root = JsonParser::parse(out.str());

    ASSERT_EQ(root.kind, JsonValue::Object);
    ASSERT_TRUE(root.has("counters"));
    ASSERT_TRUE(root.has("histograms"));
    EXPECT_DOUBLE_EQ(
        root.at("counters").at("test_obs.json \"quoted\"").number,
        3.0);
    const JsonValue &hist =
        root.at("histograms").at("test_obs.json_hist");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").number, 0.25);
    EXPECT_DOUBLE_EQ(hist.at("min").number, 0.25);
    EXPECT_DOUBLE_EQ(hist.at("max").number, 0.25);
}

TEST(MetricsSummary, PrintsEveryMetricName)
{
    obs::counter("test_obs.summary_counter").add(1);
    obs::histogram("test_obs.summary_hist").observe(1.0);
    std::ostringstream out;
    obs::printMetricsSummary(out, obs::metricsSnapshot());
    EXPECT_NE(out.str().find("test_obs.summary_counter"),
              std::string::npos);
    EXPECT_NE(out.str().find("test_obs.summary_hist"),
              std::string::npos);
}

/** Spans recorded per track, oldest first, from a parsed trace. */
struct TrackSpans
{
    std::string thread_name;
    /** (ts, dur, name) sorted by ts. */
    std::vector<std::tuple<double, double, std::string>> spans;
};

std::map<double, TrackSpans>
collectTracks(const JsonValue &root)
{
    std::map<double, TrackSpans> tracks;
    for (const JsonValue &event : root.at("traceEvents").items) {
        const double tid = event.at("tid").number;
        if (event.at("ph").text == "M") {
            tracks[tid].thread_name =
                event.at("args").at("name").text;
            continue;
        }
        EXPECT_EQ(event.at("ph").text, "X");
        tracks[tid].spans.emplace_back(event.at("ts").number,
                                       event.at("dur").number,
                                       event.at("name").text);
    }
    // Longer span first on a tied start: at microsecond resolution a
    // task can end and the next one start in the same tick, and the
    // enclosing span must open before the spans it holds.
    for (auto &[tid, track] : tracks) {
        std::sort(track.spans.begin(), track.spans.end(),
                  [](const auto &a, const auto &b) {
                      if (std::get<0>(a) != std::get<0>(b))
                          return std::get<0>(a) < std::get<0>(b);
                      return std::get<1>(a) > std::get<1>(b);
                  });
    }
    return tracks;
}

/** RAII scoped spans on one thread must nest properly. */
void
expectWellNested(const TrackSpans &track)
{
    std::vector<double> open_ends;
    for (const auto &[ts, dur, name] : track.spans) {
        while (!open_ends.empty() && open_ends.back() <= ts)
            open_ends.pop_back();
        if (!open_ends.empty()) {
            EXPECT_LE(ts + dur, open_ends.back())
                << "span '" << name << "' at ts=" << ts
                << " overlaps its enclosing span";
        }
        open_ends.push_back(ts + dur);
    }
}

TEST(Tracer, DisabledSpansRecordNothing)
{
    obs::setTracingEnabled(false);
    obs::clearTrace();
    {
        obs::Span span("test_obs.invisible");
    }
    std::ostringstream out;
    obs::writeTraceJson(out);
    EXPECT_EQ(out.str().find("test_obs.invisible"),
              std::string::npos);
}

TEST(Tracer, RecordsNestedSpansAndParses)
{
    obs::setTracingEnabled(true);
    obs::clearTrace();
    obs::setThreadTrackName("test main");
    {
        obs::Span outer("test_obs.outer");
        {
            obs::Span inner("test_obs.inner",
                            std::string("label \"x\""));
        }
        obs::Span sibling("test_obs.sibling");
    }
    obs::setTracingEnabled(false);

    std::ostringstream out;
    obs::writeTraceJson(out);
    const JsonValue root = JsonParser::parse(out.str());
    const auto tracks = collectTracks(root);

    bool found_track = false;
    for (const auto &[tid, track] : tracks) {
        if (track.thread_name != "test main")
            continue;
        found_track = true;
        std::vector<std::string> names;
        for (const auto &[ts, dur, name] : track.spans)
            names.push_back(name);
        EXPECT_NE(std::find(names.begin(), names.end(),
                            "test_obs.outer"),
                  names.end());
        EXPECT_NE(std::find(names.begin(), names.end(),
                            "test_obs.inner"),
                  names.end());
        expectWellNested(track);
    }
    EXPECT_TRUE(found_track);
    // The label string round-trips through JSON escaping.
    EXPECT_NE(out.str().find("label \\\"x\\\""), std::string::npos);
}

TEST(Tracer, ConcurrentSpansStayPerThreadAndNested)
{
    obs::setTracingEnabled(true);
    obs::clearTrace();
    parallelFor(
        32,
        [](std::size_t) {
            obs::Span outer("test_obs.task");
            for (int i = 0; i < 8; ++i)
                obs::Span inner("test_obs.step");
        },
        4);
    obs::setTracingEnabled(false);

    std::ostringstream out;
    obs::writeTraceJson(out);
    const JsonValue root = JsonParser::parse(out.str());
    const auto tracks = collectTracks(root);
    std::size_t total_spans = 0;
    for (const auto &[tid, track] : tracks) {
        expectWellNested(track);
        total_spans += track.spans.size();
    }
    // 32 tasks x (1 outer + 8 inner), all retained (rings are far
    // from full), plus whatever other tests left on other tracks.
    EXPECT_GE(total_spans, 32u * 9u);
}

TEST(Tracer, RingBoundsMemoryAndCountsDrops)
{
    obs::setTraceRingCapacity(16);
    obs::setTracingEnabled(true);
    const std::uint64_t dropped_before = obs::traceDroppedSpans();
    // A fresh thread gets a fresh (16-slot) ring.
    std::thread recorder([] {
        obs::setThreadTrackName("test ring");
        for (int i = 0; i < 100; ++i)
            obs::Span span("test_obs.ring");
    });
    recorder.join();
    obs::setTracingEnabled(false);
    obs::setTraceRingCapacity(32768);

    EXPECT_EQ(obs::traceDroppedSpans() - dropped_before, 84u);

    std::ostringstream out;
    obs::writeTraceJson(out);
    const JsonValue root = JsonParser::parse(out.str());
    std::size_t ring_spans = 0;
    double ring_tid = -1;
    for (const JsonValue &event : root.at("traceEvents").items) {
        if (event.at("ph").text == "M" &&
            event.at("args").at("name").text == "test ring")
            ring_tid = event.at("tid").number;
    }
    for (const JsonValue &event : root.at("traceEvents").items) {
        if (event.at("ph").text == "X" &&
            event.at("tid").number == ring_tid)
            ++ring_spans;
    }
    EXPECT_EQ(ring_spans, 16u);
}

TEST(Tracer, DetailedTimingFlagRoundTrips)
{
    EXPECT_FALSE(obs::detailedTimingEnabled());
    obs::setDetailedTiming(true);
    EXPECT_TRUE(obs::detailedTimingEnabled());
    obs::setDetailedTiming(false);
    EXPECT_FALSE(obs::detailedTimingEnabled());
}

} // namespace
} // namespace gaia
