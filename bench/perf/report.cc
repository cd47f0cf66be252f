#include "perf.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace gaia::perf {

namespace {

std::string
pinKey(const std::string &set, std::uint64_t seed,
       const std::string &cell)
{
    return set + ' ' + std::to_string(seed) + ' ' + cell;
}

/** Every digit of `value`, so it reads back as the same double. */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

} // namespace

void
Report::add(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::record(std::uint64_t attempted, std::uint64_t failed,
               const std::string &what)
{
    attempted_ += attempted;
    if (failed == 0)
        return;
    // The first few failures explain a non-zero error_rate; a
    // systematic one would otherwise print once per cell.
    if (failed_ < 10)
        std::cerr << "gaia_perf: FAILED (" << failed << "): " << what
                  << "\n";
    failed_ += failed;
}

void
Report::print() const
{
    for (const Metric &m : metrics_)
        std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit
                  << '\n';
}

bool
Report::writeJson(const std::string &path, const Options &options) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) {
        std::cerr << "gaia_perf: cannot write " << path << "\n";
        return false;
    }
    out << "{\n"
        << "  \"workload\": " << quoted(options.workload) << ",\n"
        << "  \"seed\": " << options.seed << ",\n"
        << "  \"traced\": " << (options.traced ? "true" : "false")
        << ",\n"
        << "  \"quick\": " << (options.quick ? "true" : "false") << ",\n"
        << "  \"seconds\": " << number(options.seconds) << ",\n"
        << "  \"build_type\": " << quoted(GAIA_PERF_BUILD_TYPE) << ",\n"
        << "  \"compiler\": " << quoted(GAIA_PERF_COMPILER) << ",\n"
        << "  \"commit\": " << quoted(GAIA_PERF_COMMIT) << ",\n"
        << "  \"nproc\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"threads\": " << options.threads << ",\n"
        << "  \"attempted\": " << attempted_ << ",\n"
        << "  \"failed\": " << failed_ << ",\n"
        << "  \"error_rate\": " << number(errorRate()) << ",\n"
        << "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out << (i ? ",\n    " : "\n    ") << quoted(m.name)
            << ": {\"value\": " << number(m.value)
            << ", \"unit\": " << quoted(m.unit) << "}";
    }
    out << "\n  }\n}\n";
    return out.good();
}

Fingerprints::Fingerprints(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string set, cell, digest;
        std::uint64_t seed = 0;
        char *end = nullptr;
        const bool parsed = static_cast<bool>(fields >> set >> seed >>
                                              cell >> digest);
        const std::uint64_t value =
            parsed ? std::strtoull(digest.c_str(), &end, 16) : 0;
        if (!parsed || end == digest.c_str() || *end != '\0') {
            std::cerr << "gaia_perf: malformed line in " << path << ": "
                      << line << "\n";
            std::exit(2);
        }
        pinned_[pinKey(set, seed, cell)] = value;
    }
}

std::optional<std::uint64_t>
Fingerprints::find(const std::string &set, std::uint64_t seed,
                   const std::string &cell) const
{
    const auto it = pinned_.find(pinKey(set, seed, cell));
    if (it == pinned_.end())
        return std::nullopt;
    return it->second;
}

void
checkPinned(const Options &options, const std::string &cell,
            std::uint64_t fingerprint, Report &report)
{
    // Both serve workloads stream the same scenario, so they share
    // one pinned batch twin; quick-mode sizes are never pinned.
    std::string set = options.workload.rfind("serve_", 0) == 0
                          ? "serve"
                          : options.workload;
    if (options.quick)
        set += "_quick";
    if (options.emit_fingerprints)
        std::cout << "fingerprint " << pinKey(set, options.seed, cell)
                  << ' ' << hex(fingerprint) << '\n';
    const std::optional<std::uint64_t> pinned =
        options.pins.find(set, options.seed, cell);
    if (pinned.has_value())
        report.check(*pinned == fingerprint,
                     "cell " + cell + " fingerprint " + hex(fingerprint) +
                         " differs from the pinned " + hex(*pinned));
}

std::string
hex(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

CoarseSpan::CoarseSpan(const char *name, bool traced)
{
    if (!traced)
        return;
    obs::setTracingEnabled(true);
    span_.emplace(name);
    obs::setTracingEnabled(false);
}

} // namespace gaia::perf
