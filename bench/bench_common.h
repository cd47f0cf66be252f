/**
 * @file
 * Shared plumbing for the figure-reproduction binaries: a results
 * directory for CSV output, standard trace/region constructors, and
 * small formatting helpers. Each bench prints the paper's
 * rows/series as aligned tables and mirrors them into
 * bench_results/<name>.csv for external plotting.
 */

#ifndef GAIA_BENCH_BENCH_COMMON_H
#define GAIA_BENCH_BENCH_COMMON_H

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "analysis/parallel.h"
#include "common/csv.h"
#include "common/executor.h"
#include "common/logging.h"
#include "common/obs.h"
#include "common/strings.h"
#include "common/time.h"

namespace gaia::bench {

/** The bench's argv[0], recorded by parseBenchArgs for error lines. */
inline std::string &
programName()
{
    static std::string name = "bench";
    return name;
}

/** Print `message` as the bench's one error line and exit 2, as an
 *  input error does. */
[[noreturn]] inline void
exitWithError(const std::string &message)
{
    std::cerr << programName() << ": " << message << "\n";
    std::exit(2);
}

/** Observability sinks requested on the bench command line;
 *  written once at process exit. */
struct ObsSinkConfig
{
    std::string metrics_out;
    std::string trace_out;
    bool verbose = false;
};

inline ObsSinkConfig &
obsSinkConfig()
{
    static ObsSinkConfig config;
    return config;
}

/**
 * atexit hook writing the requested observability sinks. parallelFor
 * joins its threads before it returns, so every counter update and
 * span has landed by the time the hook runs.
 */
inline void
writeObsSinksAtExit()
{
    const ObsSinkConfig &config = obsSinkConfig();
    obs::writeSinks(config.metrics_out, config.trace_out,
                    config.verbose, std::cout);
}

/**
 * Parse the shared bench flags: `--threads N` caps parallelFor's
 * worker count (overriding GAIA_THREADS; values parseThreadCount
 * rejects exit with code 2), `--metrics-out PATH` /
 * `--trace-out PATH` write the metrics snapshot / Chrome trace JSON
 * at process exit, and `--verbose` prints the metrics summary table
 * at exit. Flags also accept the `--flag=value` spelling. Unknown
 * arguments are ignored so individual benches can add their own.
 */
inline void
parseBenchArgs(int argc, char **argv)
{
    programName() = argv[0];
    const std::vector<std::string> args = expandEqualsArgs(
        std::vector<std::string>(argv + 1, argv + argc));
    const auto need_value = [&](std::size_t i,
                                const std::string &flag) {
        if (i + 1 >= args.size())
            exitWithError(flag + " needs a value");
        return args[i + 1];
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--threads") {
            const Result<unsigned> threads =
                parseThreadCount(need_value(i++, arg), arg);
            if (!threads.isOk())
                exitWithError(threads.status().message());
            setParallelThreads(threads.value());
        } else if (arg == "--metrics-out") {
            obsSinkConfig().metrics_out = need_value(i++, arg);
        } else if (arg == "--trace-out") {
            obsSinkConfig().trace_out = need_value(i++, arg);
        } else if (arg == "--verbose") {
            obsSinkConfig().verbose = true;
        }
    }
    const ObsSinkConfig &config = obsSinkConfig();
    obs::startSinks(config.metrics_out, config.trace_out,
                    config.verbose);
    std::atexit(writeObsSinksAtExit);
}

/** Directory for CSV mirrors (override with GAIA_RESULTS_DIR);
 *  exits 2 when it cannot be created. */
inline std::string
resultsDir()
{
    const char *env = std::getenv("GAIA_RESULTS_DIR");
    const std::string dir = env ? env : "bench_results";
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error)
        exitWithError("cannot create results directory " + dir + ": " +
                      error.message());
    return dir;
}

/** Open a CSV mirror for one experiment output; exits 2 when the
 *  file cannot be opened. */
inline CsvWriter
openCsv(const std::string &name, std::vector<std::string> header)
{
    Result<CsvWriter> writer = CsvWriter::open(
        resultsDir() + "/" + name + ".csv", std::move(header));
    if (!writer.isOk())
        exitWithError(writer.status().message());
    return std::move(writer).value();
}

/** Banner naming the paper artifact being regenerated. */
inline void
banner(const std::string &figure, const std::string &description)
{
    std::cout << "\n########################################"
                 "########################\n"
              << "# " << figure << ": " << description << "\n"
              << "########################################"
                 "########################\n";
}

/**
 * Minimal ordered JSON emitter for BENCH_*.json machine-readable
 * bench reports: flat top-level fields plus one level of named
 * sections, written in insertion order so diffs stay readable.
 */
class JsonReport
{
  public:
    void set(const std::string &key, double value)
    {
        fields_.emplace_back(key, number(value));
    }

    void set(const std::string &key, const std::string &value)
    {
        fields_.emplace_back(key, quote(value));
    }

    /** Set `key` inside section `name` (created on first use). */
    void setIn(const std::string &name, const std::string &key,
               double value)
    {
        sectionFor(name).emplace_back(key, number(value));
    }

    void writeTo(const std::string &path) const
    {
        std::ofstream out(path, std::ios::trunc);
        if (!out.good()) {
            std::cerr << "cannot write " << path << "\n";
            return;
        }
        out << "{\n";
        bool first = true;
        for (const auto &[key, value] : fields_) {
            out << (first ? "" : ",\n") << "  " << quote(key)
                << ": " << value;
            first = false;
        }
        for (const auto &[name, fields] : sections_) {
            out << (first ? "" : ",\n") << "  " << quote(name)
                << ": {\n";
            first = false;
            for (std::size_t i = 0; i < fields.size(); ++i) {
                out << "    " << quote(fields[i].first) << ": "
                    << fields[i].second
                    << (i + 1 < fields.size() ? ",\n" : "\n");
            }
            out << "  }";
        }
        out << "\n}\n";
        std::cout << "Wrote " << path << "\n";
    }

  private:
    using Fields =
        std::vector<std::pair<std::string, std::string>>;

    static std::string number(double value)
    {
        std::ostringstream oss;
        oss.precision(6);
        oss << value;
        return oss.str();
    }

    static std::string quote(const std::string &text)
    {
        std::string out = "\"";
        for (char c : text) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }

    Fields &sectionFor(const std::string &name)
    {
        for (auto &[existing, fields] : sections_) {
            if (existing == name)
                return fields;
        }
        sections_.emplace_back(name, Fields{});
        return sections_.back().second;
    }

    Fields fields_;
    std::vector<std::pair<std::string, Fields>> sections_;
};

/** Hourly slot count for a year-long run plus scheduling margin. */
inline std::size_t
yearSlots()
{
    return static_cast<std::size_t>(kHoursPerYear) + 24 * 8;
}

/** Hourly slot count for a week-long run plus margin. */
inline std::size_t
weekSlots()
{
    return 24 * (7 + 6);
}

} // namespace gaia::bench

#endif // GAIA_BENCH_BENCH_COMMON_H
