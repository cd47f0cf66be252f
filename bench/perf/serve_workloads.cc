/**
 * @file
 * The two serving workloads of the ledger: one Carbon-Time daemon
 * (unpaced) over the Alibaba-PAI year, fed its own calibration trace.
 *
 *  - serve_stream: in-process producers. Saturating lifetimes push
 *    as fast as backpressure allows, then drain; open-loop lifetimes
 *    send at a fixed rate, timing each job from when it was due. This
 *    exercises the MPSC hand-off, WallClockDriver pacing and the
 *    engine, with no parsing.
 *  - serve_socket: the same daemon behind ControlServer::run(), one
 *    client pipelining `submit` lines. Parsing and one write per
 *    reply dominate, so control-plane changes show here and engine
 *    changes barely do.
 *
 * Every drained result must carry the batch twin's fingerprint
 * (runScenario on the same spec).
 */

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "common/stats.h"
#include "perf.h"
#include "serve/control.h"
#include "serve/daemon.h"
#include "sim/results.h"

namespace gaia::perf {

namespace {

using serve::ControlServer;
using serve::ServeConfig;
using serve::ServeDaemon;
using serve::ServeStats;

/** Open-loop send rate, jobs per wall second. */
constexpr double kOpenLoopRate = 500000.0;
/** Submit lines in flight on the control socket. */
constexpr std::size_t kWindow = 32;

// Run lengths, sized so a run's measured phase takes about 10 s on
// the reference host.
/** serve_stream: saturating lifetimes, and as many open-loop ones. */
constexpr std::size_t kStreamLifetimes = 20;
/** serve_socket lifetimes. */
constexpr std::size_t kSocketLifetimes = 15;
/** Serial decorated rounds of the batch twin in a traced run. */
constexpr std::size_t kTwinRounds = 20;
/** handleLine loops behind serve.handle_line_ns. */
constexpr std::size_t kHandleLineLoops = 5;

ScenarioSpec
serveSpec(const Options &options)
{
    ScenarioSpec spec;
    if (options.quick) {
        TraceBuildOptions stream;
        stream.job_count = 20000;
        stream.span = kSecondsPerYear / 5;
        stream.seed = options.seed;
        spec.workload =
            WorkloadSpec::builtin(WorkloadSource::AlibabaPai, stream);
        spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia, 0,
                                            options.seed);
    } else {
        spec.workload =
            WorkloadSpec::year(WorkloadSource::AlibabaPai, options.seed);
        spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                            kYearSlots, options.seed);
    }
    spec.policy = "Carbon-Time";
    return spec;
}

double
microsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::micro>(to - from).count();
}

/** A running daemon and what its start cost. */
struct Started
{
    std::unique_ptr<ServeDaemon> daemon;
    double start_s = 0.0;
};

Started
startDaemon(const ScenarioSpec &spec, std::size_t queue_capacity,
            bool traced, Report &report)
{
    ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0;
    config.queue_capacity = queue_capacity;
    const Clock::time_point begin = Clock::now();
    Result<std::unique_ptr<ServeDaemon>> daemon = [&] {
        const CoarseSpan span("serve.start", traced);
        return ServeDaemon::start(config);
    }();
    Started started;
    started.start_s = secondsSince(begin);
    report.check(daemon.isOk(),
                 "daemon start: " + daemon.status().toString());
    if (daemon.isOk())
        started.daemon = std::move(daemon).value();
    return started;
}

/** The drain is one operation and every streamed job another; a job
 *  the drained result does not hold was lost or rejected. */
void
checkDrained(const Result<SimulationResult> &drained, std::size_t jobs,
             std::uint64_t twin, Report &report)
{
    const std::uint64_t fp =
        drained.isOk() ? resultFingerprint(drained.value()) : 0;
    report.check(drained.isOk() && fp == twin,
                 drained.isOk() ? "drained fingerprint " + hex(fp) +
                                      " differs from the batch twin " +
                                      hex(twin)
                                : "drain: " + drained.status().toString());
    const std::size_t settled =
        drained.isOk() ? drained.value().outcomes.size() : 0;
    report.record(jobs, settled > jobs ? settled - jobs : jobs - settled,
                  "jobs lost or rejected in a daemon lifetime");
}

/** Offer `job` until the queue takes it; counts rejected offers. */
Status
offerUntilAccepted(ServeDaemon &daemon, const Job &job,
                   std::uint64_t &rejected_full)
{
    Status status = daemon.submit(job);
    while (!status.isOk() &&
           status.code() == ErrorCode::ResourceExhausted) {
        ++rejected_full;
        std::this_thread::yield();
        status = daemon.submit(job);
    }
    return status;
}

/** One saturating lifetime's numbers. */
struct Saturated
{
    double start_s = 0.0;
    double jobs_per_s = 0.0;
    double drain_s = 0.0;
    std::uint64_t offers = 0;
    std::uint64_t rejected_full = 0;
    /** Per-call ServeDaemon::submit time, traced lifetimes only. */
    std::vector<double> submit_ns;
};

Saturated
saturatingLifetime(const ScenarioSpec &spec, std::uint64_t twin,
                   bool traced, Report &report)
{
    Saturated out;
    Started started = startDaemon(spec, 1 << 16, traced, report);
    if (started.daemon == nullptr)
        return out;
    ServeDaemon &daemon = *started.daemon;
    out.start_s = started.start_s;
    const std::vector<Job> &jobs = daemon.calibrationTrace().jobs();
    if (traced)
        out.submit_ns.reserve(jobs.size());

    Status submit_error;
    const Clock::time_point begin = Clock::now();
    for (const Job &job : jobs) {
        Status status;
        if (traced) {
            const Clock::time_point t = Clock::now();
            status = daemon.submit(job);
            out.submit_ns.push_back(
                std::chrono::duration<double, std::nano>(Clock::now() - t)
                    .count());
            if (!status.isOk() &&
                status.code() == ErrorCode::ResourceExhausted) {
                ++out.rejected_full;
                status = offerUntilAccepted(daemon, job, out.rejected_full);
            }
        } else {
            status = offerUntilAccepted(daemon, job, out.rejected_full);
        }
        if (!status.isOk() && submit_error.isOk())
            submit_error = status;
    }
    out.offers = jobs.size() + out.rejected_full;
    const Clock::time_point drain_begin = Clock::now();
    const Result<SimulationResult> drained = [&] {
        const CoarseSpan span("serve.drain", traced);
        return daemon.drain();
    }();
    const Clock::time_point end = Clock::now();
    out.drain_s = std::chrono::duration<double>(end - drain_begin).count();
    out.jobs_per_s = static_cast<double>(jobs.size()) /
                     std::chrono::duration<double>(end - begin).count();
    report.check(submit_error.isOk(),
                 "submit: " + submit_error.toString());
    checkDrained(drained, jobs.size(), twin, report);
    return out;
}

/** One open-loop lifetime's numbers. */
struct OpenLoop
{
    double start_s = 0.0;
    double lag_p50_us = 0.0;
    double lag_p99_us = 0.0;
    double late_p99_us = 0.0;
    std::uint64_t backlog_peak = 0;
};

/**
 * Sends job i at begin + i / kOpenLoopRate whatever the daemon does.
 * A poller counts job i as decided when stats() first shows it
 * released with sim_now at or past its submit time; its lag runs
 * from when it was due.
 */
OpenLoop
openLoopLifetime(const ScenarioSpec &spec, std::uint64_t twin,
                 Report &report)
{
    OpenLoop out;
    Started started = startDaemon(spec, 1 << 16, false, report);
    if (started.daemon == nullptr)
        return out;
    ServeDaemon &daemon = *started.daemon;
    out.start_s = started.start_s;
    const std::vector<Job> &jobs = daemon.calibrationTrace().jobs();
    const std::size_t n = jobs.size();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOpenLoopRate));
    // Lead time so the poller is running before the first send.
    const Clock::time_point begin =
        Clock::now() + std::chrono::milliseconds(2);
    const auto due = [&](std::size_t i) {
        return begin + period * static_cast<std::int64_t>(i);
    };

    std::vector<double> lag_us(n, 0.0);
    std::atomic<bool> drained_flag{false};
    std::thread poller([&] {
        // After the drain, one last snapshot settles every job that
        // can be settled; a job rejected late never is.
        std::size_t decided = 0;
        for (bool last = false; decided < n && !last;) {
            last = drained_flag.load(std::memory_order_acquire);
            const ServeStats s = daemon.stats();
            const Clock::time_point now = Clock::now();
            if (s.accepted > s.released)
                out.backlog_peak =
                    std::max(out.backlog_peak, s.accepted - s.released);
            while (decided < s.released && decided < n &&
                   jobs[decided].submit <= s.sim_now) {
                lag_us[decided] = microsBetween(due(decided), now);
                ++decided;
            }
        }
    });

    std::vector<double> late_us(n, 0.0);
    std::uint64_t rejected_full = 0;
    Status submit_error;
    for (std::size_t i = 0; i < n; ++i) {
        const Clock::time_point due_at = due(i);
        Clock::time_point now = Clock::now();
        while (now < due_at)
            now = Clock::now();
        late_us[i] = microsBetween(due_at, now);
        const Status status =
            offerUntilAccepted(daemon, jobs[i], rejected_full);
        if (!status.isOk() && submit_error.isOk())
            submit_error = status;
    }
    const Result<SimulationResult> drained = daemon.drain();
    drained_flag.store(true, std::memory_order_release);
    poller.join();
    report.check(submit_error.isOk(),
                 "submit: " + submit_error.toString());
    checkDrained(drained, n, twin, report);
    report.check(rejected_full == 0,
                 std::to_string(rejected_full) +
                     " open-loop offers hit a full queue");

    out.lag_p50_us = percentile(lag_us, 50);
    out.lag_p99_us = percentile(lag_us, 99);
    out.late_p99_us = percentile(late_us, 99);
    return out;
}

/** The batch twin's fingerprint, checked against its pin. */
std::uint64_t
batchTwin(const Options &options, const ScenarioSpec &spec,
          Report &report)
{
    const Result<SimulationResult> twin = runScenario(spec);
    report.check(twin.isOk(), "batch twin: " + twin.status().toString());
    const std::uint64_t fp =
        twin.isOk() ? resultFingerprint(twin.value()) : 0;
    checkPinned(options, "twin", fp, report);
    return fp;
}

/** `full`, or 2 in the self-test. */
std::size_t
count(const Options &options, std::size_t full)
{
    return options.quick ? 2 : full;
}

/** Connect to the AF_UNIX socket at `path`, retrying while the
 *  server is not yet listening; -1 after `timeout_s`. */
int
connectWithRetry(const std::string &path, double timeout_s)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        return -1;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const Clock::time_point begin = Clock::now();
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) == 0)
            return fd;
        ::close(fd);
        if (secondsSince(begin) > timeout_s)
            return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

bool
writeAll(int fd, const std::string &text)
{
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One socket lifetime's numbers, from the client's side. */
struct SocketRun
{
    double start_s = 0.0;
    double jobs_per_s = 0.0;
    double rtt_p50_us = 0.0;
    double rtt_p99_us = 0.0;
};

/**
 * Stream `lines` over a closed-loop window of kWindow lines, then
 * drain. Returns false on an I/O failure; `err_replies` counts `err`
 * replies and `drain_reply` holds the drain answer.
 */
bool
streamLines(int fd, const std::vector<std::string> &lines,
            std::vector<double> &rtt_us, std::uint64_t &err_replies,
            std::string &drain_reply)
{
    const std::size_t n = lines.size();
    std::vector<Clock::time_point> sent(n);
    rtt_us.assign(n, 0.0);
    std::size_t next = 0;
    std::size_t done = 0;
    std::string out;
    std::string pending;
    char buf[1 << 16];
    bool draining = false;
    for (;;) {
        if (!draining && next - done < kWindow) {
            out.clear();
            const Clock::time_point now = Clock::now();
            while (next < n && next - done < kWindow) {
                out += lines[next];
                sent[next++] = now;
            }
            if (done == n) {
                out = "drain\n";
                draining = true;
            }
            if (!out.empty() && !writeAll(fd, out))
                return false;
        }
        const ssize_t got = ::read(fd, buf, sizeof buf);
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            return false;
        const Clock::time_point now = Clock::now();
        pending.append(buf, static_cast<std::size_t>(got));
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            const std::string reply = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            if (draining) {
                drain_reply = reply;
                return true;
            }
            if (done >= n)
                return false; // a reply nothing asked for
            rtt_us[done] = microsBetween(sent[done], now);
            if (reply != "ok")
                ++err_replies;
            ++done;
        }
    }
}

/** The protocol's submit line for `job`, newline included. */
std::string
submitLine(const Job &job)
{
    return "submit " + std::to_string(job.id) + ' ' +
           std::to_string(job.submit) + ' ' + std::to_string(job.length) +
           ' ' + std::to_string(job.cpus) + '\n';
}

SocketRun
socketLifetime(const ScenarioSpec &spec, std::uint64_t twin, bool traced,
               Report &report)
{
    SocketRun out;
    Started started = startDaemon(spec, 1 << 16, traced, report);
    if (started.daemon == nullptr)
        return out;
    out.start_s = started.start_s;
    const std::vector<Job> &jobs =
        started.daemon->calibrationTrace().jobs();
    std::vector<std::string> lines;
    lines.reserve(jobs.size());
    for (const Job &job : jobs)
        lines.push_back(submitLine(job));

    // A relative path keeps the socket inside the working directory
    // and well under the AF_UNIX path limit.
    const std::string path =
        "gaia_perf." + std::to_string(::getpid()) + ".sock";
    ControlServer server(*started.daemon, path);
    Result<SimulationResult> served =
        Status::failedPrecondition("control server never ran");
    std::thread server_thread([&] { served = server.run(); });

    const int fd = connectWithRetry(path, 10.0);
    if (fd < 0) {
        // The server thread would wait in accept() forever.
        std::cerr << "gaia_perf: cannot connect to " << path << "\n";
        std::_Exit(2);
    }
    std::vector<double> rtt_us;
    std::uint64_t err_replies = 0;
    std::string drain_reply;
    const Clock::time_point begin = Clock::now();
    bool io_ok = false;
    {
        const CoarseSpan span("serve.socket_stream", traced);
        io_ok = streamLines(fd, lines, rtt_us, err_replies, drain_reply);
    }
    const double elapsed = secondsSince(begin);
    ::close(fd);
    if (!io_ok) {
        // Unblock a server still waiting for lines or connections.
        const int rescue = connectWithRetry(path, 1.0);
        if (rescue >= 0) {
            writeAll(rescue, "drain\n");
            ::close(rescue);
        }
    }
    server_thread.join();

    report.check(io_ok, "control-socket stream broke off");
    report.check(drain_reply == "drained " + hex(twin),
                 "drain reply '" + drain_reply +
                     "' does not carry the batch twin " + hex(twin));
    report.check(err_replies == 0,
                 std::to_string(err_replies) + " err replies");
    checkDrained(served, jobs.size(), twin, report);
    out.jobs_per_s = static_cast<double>(jobs.size()) / elapsed;
    out.rtt_p50_us = percentile(rtt_us, 50);
    out.rtt_p99_us = percentile(rtt_us, 99);
    return out;
}

/**
 * ControlServer::handleLine over the same lines on a spare daemon
 * whose queue holds the whole stream, so no line waits on
 * backpressure; nanoseconds per line.
 */
double
handleLineNs(const ScenarioSpec &spec, std::uint64_t twin, Report &report)
{
    Started started = startDaemon(spec, 1 << 18, false, report);
    if (started.daemon == nullptr)
        return 0.0;
    const std::vector<Job> &jobs =
        started.daemon->calibrationTrace().jobs();
    std::vector<std::string> lines;
    lines.reserve(jobs.size());
    for (const Job &job : jobs) {
        lines.push_back(submitLine(job));
        lines.back().pop_back();
    }
    ControlServer spare(*started.daemon, "unused.sock");
    std::string reply;
    std::uint64_t errs = 0;
    const Clock::time_point begin = Clock::now();
    for (const std::string &line : lines) {
        spare.handleLine(line, reply);
        errs += reply != "ok";
    }
    const double elapsed = secondsSince(begin);
    spare.handleLine("drain", reply);
    report.check(errs == 0, std::to_string(errs) + " err replies");
    report.check(reply == "drained " + hex(twin),
                 "handleLine drain reply '" + reply + "'");
    checkDrained(spare.drained(), jobs.size(), twin, report);
    return elapsed / static_cast<double>(jobs.size()) * 1e9;
}

} // namespace

void
runServeStream(const Options &options, Report &report)
{
    const ScenarioSpec spec = serveSpec(options);
    const std::uint64_t twin = batchTwin(options, spec, report);
    if (options.traced)
        reportSimLayers(options, {{"twin", spec}}, options.threads,
                        count(options, kTwinRounds), report);

    // Lifetimes interleave so every kind sees the same machine.
    const Deadline deadline(options);
    std::vector<Saturated> plain, timed;
    std::vector<OpenLoop> open;
    while (open.size() < count(options, kStreamLifetimes) &&
           deadline.check(report)) {
        plain.push_back(saturatingLifetime(spec, twin, false, report));
        if (options.traced)
            timed.push_back(saturatingLifetime(spec, twin, true, report));
        open.push_back(openLoopLifetime(spec, twin, report));
    }
    if (open.empty())
        return;

    std::vector<double> start_s, lag_p50, lag_p99, late_p99, backlog;
    for (const Saturated &s : plain)
        start_s.push_back(s.start_s);
    for (const OpenLoop &o : open) {
        start_s.push_back(o.start_s);
        lag_p50.push_back(o.lag_p50_us);
        lag_p99.push_back(o.lag_p99_us);
        late_p99.push_back(o.late_p99_us);
        backlog.push_back(static_cast<double>(o.backlog_peak));
    }
    const auto median_rate = [](const std::vector<Saturated> &runs) {
        std::vector<double> rates;
        for (const Saturated &s : runs)
            rates.push_back(s.jobs_per_s);
        return percentile(rates, 50);
    };

    if (!options.traced) {
        report.add("jobs_per_s", median_rate(plain), "jobs/s");
        report.add("setup_s", percentile(start_s, 50), "s");
        report.add("lag_us_p50", percentile(lag_p50, 50), "us");
        report.add("lag_us_p99", percentile(lag_p99, 50), "us");
        report.add("serve.gen_late_us_p99", percentile(late_p99, 50),
                   "us");
        return;
    }
    std::vector<double> drain_ms, submit_p50, submit_p99;
    std::uint64_t offers = 0, rejected = 0;
    for (const Saturated &s : timed) {
        if (s.submit_ns.empty())
            continue; // the daemon did not start
        drain_ms.push_back(s.drain_s * 1e3);
        submit_p50.push_back(percentile(s.submit_ns, 50));
        submit_p99.push_back(percentile(s.submit_ns, 99));
        offers += s.offers;
        rejected += s.rejected_full;
    }
    if (drain_ms.empty())
        return;
    report.add("serve.start_s", percentile(start_s, 50), "s");
    report.add("serve.drain_ms", percentile(drain_ms, 50), "ms");
    report.add("serve.submit_ns_p50", percentile(submit_p50, 50), "ns");
    report.add("serve.submit_ns_p99", percentile(submit_p99, 50), "ns");
    report.add("serve.queue_full_frac",
               static_cast<double>(rejected) / static_cast<double>(offers),
               "fraction");
    report.add("serve.backlog_peak", percentile(backlog, 50), "jobs");
    report.add("serve.gen_late_us_p99", percentile(late_p99, 50), "us");
    report.add("serve.trace_overhead_frac",
               median_rate(plain) / median_rate(timed) - 1.0, "fraction");
}

void
runServeSocket(const Options &options, Report &report)
{
    const ScenarioSpec spec = serveSpec(options);
    const std::uint64_t twin = batchTwin(options, spec, report);
    if (options.traced)
        reportSimLayers(options, {{"twin", spec}}, options.threads,
                        count(options, kTwinRounds), report);

    const Deadline deadline(options);
    std::vector<double> start_s, jobs_per_s, rtt_p50, rtt_p99;
    while (jobs_per_s.size() < count(options, kSocketLifetimes) &&
           deadline.check(report)) {
        const SocketRun run =
            socketLifetime(spec, twin, options.traced, report);
        start_s.push_back(run.start_s);
        jobs_per_s.push_back(run.jobs_per_s);
        rtt_p50.push_back(run.rtt_p50_us);
        rtt_p99.push_back(run.rtt_p99_us);
    }
    if (jobs_per_s.empty())
        return;

    if (!options.traced) {
        report.add("jobs_per_s", percentile(jobs_per_s, 50), "jobs/s");
        report.add("setup_s", percentile(start_s, 50), "s");
        report.add("rtt_us_p50", percentile(rtt_p50, 50), "us");
        report.add("rtt_us_p99", percentile(rtt_p99, 50), "us");
        return;
    }
    std::vector<double> handle_ns;
    for (std::size_t i = 0; i < count(options, kHandleLineLoops); ++i)
        handle_ns.push_back(handleLineNs(spec, twin, report));
    const double line_ns = std::ranges::min(handle_ns);
    report.add("serve.start_s", percentile(start_s, 50), "s");
    report.add("serve.handle_line_ns", line_ns, "ns");
    report.add("serve.socket_ns_per_line",
               1e9 / percentile(jobs_per_s, 50) - line_ns, "ns");
}

} // namespace gaia::perf
