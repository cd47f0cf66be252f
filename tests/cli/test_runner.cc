/** @file Tests for the gaia_run execution path and its CSVs. */

#include "cli/runner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "common/csv.h"
#include "common/strings.h"
#include "workload/job.h"

namespace gaia {
namespace {

CliOptions
smallRun(const std::string &subdir)
{
    CliOptions options;
    options.workload = "motivating";
    options.span = days(2);
    options.region = "SA-AU";
    options.seed = 3;
    options.output_dir =
        (std::filesystem::temp_directory_path() / subdir).string();
    return options;
}

SimulationResult
runOk(const CliOptions &options, RunArtifacts *artifacts = nullptr)
{
    Result<SimulationResult> run =
        runFromOptions(options, artifacts);
    EXPECT_TRUE(run.isOk()) << run.status().toString();
    return std::move(run).value();
}

TEST(CliRunner, ProducesAllThreeArtifacts)
{
    const CliOptions options = smallRun("gaia_cli_a");
    RunArtifacts artifacts;
    const SimulationResult result = runOk(options, &artifacts);

    EXPECT_GT(result.outcomes.size(), 0u);
    for (const std::string &path :
         {artifacts.aggregate_csv, artifacts.details_csv,
          artifacts.allocation_csv}) {
        EXPECT_TRUE(std::filesystem::exists(path)) << path;
    }

    const CsvTable aggregate =
        tryReadCsv(artifacts.aggregate_csv).value();
    ASSERT_EQ(aggregate.rowCount(), 1u);
    EXPECT_EQ(aggregate.cell(
                  0, aggregate.tryColumnIndex("policy").value()),
              "Carbon-Time");
    EXPECT_NEAR(
        aggregate
            .tryCellDouble(
                0, aggregate.tryColumnIndex("carbon_kg").value())
            .value(),
        result.carbon_kg, 1e-4);

    const CsvTable details =
        tryReadCsv(artifacts.details_csv).value();
    EXPECT_EQ(details.rowCount(), result.outcomes.size());

    const CsvTable allocation =
        tryReadCsv(artifacts.allocation_csv).value();
    EXPECT_GT(allocation.rowCount(), 24u);
    std::filesystem::remove_all(options.output_dir);
}

TEST(CliRunner, ExportsTheTraceTheRunUsed)
{
    // The exported CSV is what a serve client replays, so it must be
    // the run's own job column, job by job.
    CliOptions options = smallRun("gaia_cli_export");
    options.workload = "azure";
    options.jobs = 200;
    options.export_workload = options.output_dir + "-trace.csv";
    const SimulationResult result = runOk(options);

    const Result<JobTrace> exported =
        JobTrace::fromCsv(options.export_workload, "exported");
    ASSERT_TRUE(exported.isOk()) << exported.status().toString();
    ASSERT_NE(result.jobs, nullptr);
    ASSERT_EQ(exported->jobCount(), result.jobs->size());
    for (std::size_t i = 0; i < exported->jobCount(); ++i) {
        const Job &written = exported->job(i);
        const Job &ran = (*result.jobs)[i];
        EXPECT_EQ(written.id, ran.id) << i;
        EXPECT_EQ(written.submit, ran.submit) << i;
        EXPECT_EQ(written.length, ran.length) << i;
        EXPECT_EQ(written.cpus, ran.cpus) << i;
    }
    std::filesystem::remove(options.export_workload);
    std::filesystem::remove_all(options.output_dir);
}

TEST(CliRunner, DetailsSumToAggregate)
{
    CliOptions options = smallRun("gaia_cli_b");
    options.policy = "Lowest-Window";
    RunArtifacts artifacts;
    const SimulationResult result = runOk(options, &artifacts);

    const CsvTable details =
        tryReadCsv(artifacts.details_csv).value();
    const auto carbon =
        details.tryColumnDoubles("carbon_g").value();
    double total_g = 0.0;
    for (double g : carbon)
        total_g += g;
    EXPECT_NEAR(total_g / 1000.0, result.carbon_kg,
                result.carbon_kg * 1e-3 + 1e-6);
    std::filesystem::remove_all(options.output_dir);
}

TEST(CliRunner, HybridStrategyRunsWithReserved)
{
    CliOptions options = smallRun("gaia_cli_c");
    options.strategy = "res-first";
    options.reserved = 5;
    options.policy = "AllWait-Threshold";
    const SimulationResult result = runOk(options);
    EXPECT_GT(result.reserved_upfront, 0.0);
    EXPECT_GT(result.reserved_core_seconds, 0.0);
    std::filesystem::remove_all(options.output_dir);
}

TEST(CliRunner, OnDemandWithReservedFallsBackToHybrid)
{
    CliOptions options = smallRun("gaia_cli_d");
    options.reserved = 3; // strategy stays "on-demand"
    const SimulationResult result = runOk(options);
    EXPECT_EQ(result.strategy, "Hybrid");
    std::filesystem::remove_all(options.output_dir);
}

TEST(CliRunner, CsvWorkloadAndCarbonInputs)
{
    // Write tiny input files, then run from them.
    const auto dir =
        std::filesystem::temp_directory_path() / "gaia_cli_e";
    std::filesystem::create_directories(dir);
    const std::string jobs_path = (dir / "jobs.csv").string();
    const std::string carbon_path = (dir / "carbon.csv").string();
    {
        CsvWriter jobs =
            CsvWriter::open(jobs_path, {"id", "submit", "length", "cpus"})
                .value();
        jobs.writeRow({"1", "0", "3600", "1"});
        jobs.writeRow({"2", "1800", "7200", "2"});
        CsvWriter carbon =
            CsvWriter::open(carbon_path, {"hour", "carbon_intensity"})
                .value();
        for (int h = 0; h < 24 * 5; ++h)
            carbon.writeRow({std::to_string(h),
                             fmt(100.0 + (h % 24) * 10.0, 1)});
    }

    CliOptions options;
    options.workload_csv = jobs_path;
    options.carbon_csv = carbon_path;
    options.policy = "Lowest-Slot";
    options.output_dir = (dir / "out").string();
    const SimulationResult result = runOk(options);
    EXPECT_EQ(result.outcomes.size(), 2u);
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, EmptyWorkloadIsError)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "gaia_cli_f";
    std::filesystem::create_directories(dir);
    const std::string jobs_path = (dir / "empty.csv").string();
    {
        CsvWriter jobs =
            CsvWriter::open(jobs_path, {"id", "submit", "length", "cpus"})
                .value();
    }
    CliOptions options;
    options.workload_csv = jobs_path;
    const Result<SimulationResult> run = runFromOptions(options);
    ASSERT_FALSE(run.isOk());
    EXPECT_NE(run.status().message().find("empty"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, MissingWorkloadCsvIsError)
{
    CliOptions options;
    options.workload_csv = "/nonexistent/jobs.csv";
    const Result<SimulationResult> run = runFromOptions(options);
    ASSERT_FALSE(run.isOk());
    EXPECT_NE(run.status().message().find("cannot open"),
              std::string::npos);
}

TEST(CliRunner, MalformedCarbonCsvIsError)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "gaia_cli_h";
    std::filesystem::create_directories(dir);
    const std::string carbon_path = (dir / "carbon.csv").string();
    {
        CsvWriter carbon =
            CsvWriter::open(carbon_path, {"hour", "carbon_intensity"})
                .value();
        carbon.writeRow({"0", "100.0"});
        carbon.writeRow({"1", "not-a-number"});
    }
    CliOptions options = smallRun("gaia_cli_h_out");
    options.carbon_csv = carbon_path;
    const Result<SimulationResult> run = runFromOptions(options);
    ASSERT_FALSE(run.isOk());
    EXPECT_NE(run.status().message().find("cannot parse"),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, UnknownRegionIsError)
{
    CliOptions options = smallRun("gaia_cli_i");
    options.region = "Mars";
    const Result<SimulationResult> run = runFromOptions(options);
    ASSERT_FALSE(run.isOk());
    EXPECT_EQ(run.status().code(), ErrorCode::NotFound);
    EXPECT_NE(run.status().message().find("unknown region"),
              std::string::npos);
}

TEST(CliRunner, ScenarioFromOptionsMapsFields)
{
    CliOptions options = smallRun("gaia_cli_j");
    options.policy = "Lowest-Window";
    options.strategy = "spot-res";
    options.reserved = 7;
    options.eviction_rate = 0.25;
    const Result<ScenarioSpec> spec = scenarioFromOptions(options);
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    EXPECT_EQ(spec->policy, "Lowest-Window");
    EXPECT_EQ(spec->strategy, ResourceStrategy::SpotReserved);
    EXPECT_EQ(spec->cluster.reserved_cores, 7);
    EXPECT_DOUBLE_EQ(spec->cluster.spot_eviction_rate, 0.25);
    EXPECT_EQ(spec->workload.kind, WorkloadSpec::Kind::Motivating);
    EXPECT_EQ(spec->carbon.kind, CarbonSpec::Kind::RegionModel);
}

TEST(CliRunner, ResampleAppliesThePaperPipeline)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "gaia_cli_g";
    std::filesystem::create_directories(dir);
    const std::string jobs_path = (dir / "month.csv").string();
    {
        CsvWriter jobs =
            CsvWriter::open(jobs_path, {"id", "submit", "length", "cpus"})
                .value();
        for (int i = 0; i < 50; ++i) {
            jobs.writeRow({std::to_string(i),
                           std::to_string(i * 3600),
                           std::to_string(1800 + i * 600), "1"});
        }
    }
    CliOptions options;
    options.workload_csv = jobs_path;
    options.resample = true;
    options.jobs = 300;
    options.span = days(20);
    options.region = "ON-CA";
    options.output_dir = (dir / "out").string();
    const SimulationResult r = runOk(options);
    EXPECT_EQ(r.outcomes.size(), 300u);
    Seconds last = 0;
    for (const JobOutcome &o : r.outcomes)
        last = std::max<Seconds>(last, r.job(o).submit);
    EXPECT_GT(last, days(15));
    std::filesystem::remove_all(dir);
}

/** Workload whose last arrival outruns a two-slot carbon trace. */
std::filesystem::path
writeMismatchedInputs(const std::string &subdir)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / subdir;
    std::filesystem::create_directories(dir);
    {
        CsvWriter jobs =
            CsvWriter::open((dir / "jobs.csv").string(),
                            {"id", "submit", "length", "cpus"})
                .value();
        jobs.writeRow({"1", "0", "3600", "1"});
        jobs.writeRow(
            {"2", std::to_string(hours(100)), "3600", "1"});
    }
    {
        CsvWriter carbon =
            CsvWriter::open((dir / "carbon.csv").string(),
                            {"carbon_intensity"})
                .value();
        carbon.writeRow({"100"});
        carbon.writeRow({"120"});
    }
    return dir;
}

TEST(CliRunner, MismatchedHorizonsIsAStatusNotAPanic)
{
    const std::filesystem::path dir =
        writeMismatchedInputs("gaia_cli_mismatch");
    CliOptions options;
    options.workload_csv = (dir / "jobs.csv").string();
    options.carbon_csv = (dir / "carbon.csv").string();
    options.policy = "NoWait";
    options.output_dir = (dir / "out").string();
    const Result<SimulationResult> run =
        runFromOptions(options, nullptr);
    ASSERT_FALSE(run.isOk());
    EXPECT_NE(run.status().message().find("horizons do not match"),
              std::string::npos)
        << run.status().message();
    std::filesystem::remove_all(dir);
}

#ifdef GAIA_RUN_BIN
TEST(CliRunner, BothDriversExitTwoOnMismatchedHorizons)
{
    // gaia_serve runs under a timeout: a daemon that accepted these
    // inputs would listen on its socket until killed.
    const std::filesystem::path dir =
        writeMismatchedInputs("gaia_cli_mismatch_bin");
    const std::filesystem::path err = dir / "stderr.txt";
    const std::pair<std::string, std::string> drivers[] = {
        {"gaia_run", std::string(GAIA_RUN_BIN) + " --output-dir " +
                         (dir / "out").string()},
        {"gaia_serve", "timeout 10 " + std::string(GAIA_SERVE_BIN) +
                           " --socket " + (dir / "sock").string()},
    };
    for (const auto &[name, binary] : drivers) {
        const std::string command =
            binary + " --workload-csv " + (dir / "jobs.csv").string() +
            " --carbon-csv " + (dir / "carbon.csv").string() +
            " --policy NoWait >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << name;
        EXPECT_EQ(WEXITSTATUS(status), 2) << name;

        std::ifstream in(err);
        std::string line;
        std::getline(in, line);
        EXPECT_EQ(line.rfind(name + ": ", 0), 0u) << line;
        EXPECT_NE(line.find("horizons do not match"), std::string::npos)
            << line;
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, BothDriversExitTwoOnAShuffledCarbonCsv)
{
    // A row's slot is its position in the file, so hours out of
    // order would put intensities in the wrong slots; both drivers
    // must refuse the file instead (gaia_serve before it listens).
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_shuffled";
    std::filesystem::create_directories(dir);
    const std::filesystem::path carbon = dir / "carbon.csv";
    {
        CsvWriter jobs = CsvWriter::open((dir / "jobs.csv").string(),
                                         {"id", "submit", "length", "cpus"})
                             .value();
        jobs.writeRow({"1", "0", "3600", "1"});
        CsvWriter hours = CsvWriter::open(carbon.string(),
                                          {"hour", "carbon_intensity"})
                              .value();
        hours.writeRow({"5", "100"});
        hours.writeRow({"0", "200"});
        hours.writeRow({"3", "50"});
    }
    const std::filesystem::path err = dir / "stderr.txt";
    const std::pair<std::string, std::string> drivers[] = {
        {"gaia_run", std::string(GAIA_RUN_BIN) + " --output-dir " +
                         (dir / "out").string()},
        {"gaia_serve", "timeout 10 " + std::string(GAIA_SERVE_BIN) +
                           " --socket " + (dir / "sock").string()},
    };
    for (const auto &[name, binary] : drivers) {
        const std::string command =
            binary + " --workload-csv " + (dir / "jobs.csv").string() +
            " --carbon-csv " + carbon.string() +
            " --policy NoWait >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << name;
        EXPECT_EQ(WEXITSTATUS(status), 2) << name;

        std::ifstream in(err);
        std::string line, rest;
        std::getline(in, line);
        EXPECT_EQ(line.rfind(name + ": ", 0), 0u) << line;
        EXPECT_NE(line.find(carbon.string()), std::string::npos) << line;
        EXPECT_NE(line.find("row 0 has hour '5'"), std::string::npos)
            << line;
        EXPECT_FALSE(std::getline(in, rest)) << rest;
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, CsvCellErrorsNameTheirFile)
{
    // Given both a workload and a carbon CSV, a cell that does not
    // parse must say which file it is in: the column alone once had
    // to tell the user.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_bad_cell";
    std::filesystem::create_directories(dir);
    const std::filesystem::path jobs = dir / "jobs.csv";
    const std::filesystem::path bad_jobs = dir / "bad-jobs.csv";
    const std::filesystem::path carbon = dir / "carbon.csv";
    const std::filesystem::path bad_carbon = dir / "bad-carbon.csv";
    {
        CsvWriter good = CsvWriter::open(jobs.string(),
                                         {"id", "submit", "length", "cpus"})
                             .value();
        good.writeRow({"1", "0", "3600", "1"});
        CsvWriter bad = CsvWriter::open(bad_jobs.string(),
                                        {"id", "submit", "length", "cpus"})
                            .value();
        bad.writeRow({"1", "0", "an-hour", "1"});
        CsvWriter hours = CsvWriter::open(carbon.string(),
                                          {"hour", "carbon_intensity"})
                              .value();
        CsvWriter bad_hours =
            CsvWriter::open(bad_carbon.string(),
                            {"hour", "carbon_intensity"})
                .value();
        for (int h = 0; h < 48; ++h) {
            hours.writeRow({std::to_string(h), "100"});
            bad_hours.writeRow({std::to_string(h), h == 1 ? "banana" : "100"});
        }
    }
    const std::filesystem::path err = dir / "stderr.txt";
    const std::pair<std::filesystem::path, std::filesystem::path> runs[] = {
        {bad_jobs, carbon}, {jobs, bad_carbon}};
    for (const auto &[workload, intensities] : runs) {
        const std::filesystem::path &bad =
            workload == bad_jobs ? bad_jobs : bad_carbon;
        const std::string command =
            std::string(GAIA_RUN_BIN) + " --output-dir " +
            (dir / "out").string() + " --workload-csv " +
            workload.string() + " --carbon-csv " + intensities.string() +
            " --policy NoWait >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << bad;
        EXPECT_EQ(WEXITSTATUS(status), 2) << bad;

        std::ifstream in(err);
        std::string line;
        std::getline(in, line);
        EXPECT_EQ(line.rfind("gaia_run: " + bad.string() + ": ", 0), 0u)
            << line;
        EXPECT_NE(line.find("cannot parse"), std::string::npos) << line;
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, GaiaServeNamesAServeFlagMissingItsValue)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_serve_flags";
    std::filesystem::create_directories(dir);
    const std::filesystem::path err = dir / "stderr.txt";
    for (const std::string flag :
         {"--socket", "--accel", "--queue-capacity"}) {
        // The flag comes last, so a first --socket keeps a daemon
        // that accepted it off the default socket.
        const std::string command =
            "timeout 10 " + std::string(GAIA_SERVE_BIN) +
            " --socket " + (dir / "sock").string() + " " + flag +
            " >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << flag;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flag;

        // One "gaia_serve: ..." line on stderr.
        std::ifstream in(err);
        std::string line, rest;
        std::getline(in, line);
        EXPECT_EQ(line, "gaia_serve: missing value for " + flag);
        EXPECT_FALSE(std::getline(in, rest)) << rest;
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, GaiaRunReportsUnwritableOutputPaths)
{
    // Output paths are command-line input too: each one below cannot
    // be written, and gaia_run must say so in one stderr line and
    // exit 2, like any input error.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_outputs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::filesystem::path file = dir / "file";
    std::ofstream(file) << "not a directory\n";
    // An output directory whose details.csv is a directory.
    const std::filesystem::path blocked = dir / "blocked";
    std::filesystem::create_directories(blocked / "details.csv");
    const std::filesystem::path err = dir / "stderr.txt";

    const std::pair<std::string, std::string> cases[] = {
        {"--output-dir " + (file / "out").string(),
         "cannot create output directory " + (file / "out").string()},
        {"--export-workload " + (dir / "missing" / "x.csv").string() +
             " --output-dir " + (dir / "out").string(),
         "cannot open CSV file for writing: " +
             (dir / "missing" / "x.csv").string()},
        {"--output-dir " + blocked.string(),
         "cannot open CSV file for writing: " +
             (blocked / "details.csv").string()},
    };
    for (const auto &[args, needle] : cases) {
        const std::string command =
            std::string(GAIA_RUN_BIN) +
            " --workload azure --jobs 50 --span-days 2 " + args +
            " >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        ASSERT_TRUE(WIFEXITED(status)) << args;
        EXPECT_EQ(WEXITSTATUS(status), 2) << args;

        std::ifstream in(err);
        std::string line, rest;
        std::getline(in, line);
        EXPECT_EQ(line.rfind("gaia_run: ", 0), 0u) << line;
        EXPECT_NE(line.find(needle), std::string::npos) << line;
        EXPECT_FALSE(std::getline(in, rest)) << rest;
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, GaiaServeRefusesTheBatchOnlyFlags)
{
    // A daemon that ignored these would listen until killed.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_serve_batch";
    std::filesystem::create_directories(dir);
    const std::filesystem::path err = dir / "stderr.txt";
    const std::pair<std::string, std::string> flags[] = {
        {"--export-workload", " " + (dir / "x.csv").string()},
        {"--output-dir", " " + (dir / "out").string()},
        {"--print-fingerprint", ""},
    };
    for (const auto &[flag, value] : flags) {
        const std::string command =
            "timeout 10 " + std::string(GAIA_SERVE_BIN) +
            " --workload azure --jobs 50 --span-days 2 --accel 0"
            " --socket " +
            (dir / "sock").string() + " " + flag + value +
            " >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << flag;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flag;

        std::ifstream in(err);
        std::string line;
        std::getline(in, line);
        EXPECT_EQ(line, "gaia_serve: " + flag + " applies to gaia_run only");
    }
    EXPECT_FALSE(std::filesystem::exists(dir / "x.csv"));
    EXPECT_FALSE(std::filesystem::exists(dir / "out"));
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, BothDriversListTheSamePolicies)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_policies";
    std::filesystem::create_directories(dir);
    std::string listings[2];
    const std::string binaries[] = {
        GAIA_RUN_BIN, "timeout 10 " + std::string(GAIA_SERVE_BIN) +
                          " --socket " + (dir / "sock").string()};
    for (int b = 0; b < 2; ++b) {
        const std::filesystem::path out = dir / "stdout.txt";
        const std::string command = binaries[b] + " --list-policies >" +
                                    out.string() + " 2>&1";
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << binaries[b];
        EXPECT_EQ(WEXITSTATUS(status), 0) << binaries[b];
        std::ifstream in(out);
        std::ostringstream text;
        text << in.rdbuf();
        listings[b] = text.str();
    }
    EXPECT_EQ(listings[1], listings[0]);
    EXPECT_EQ(listings[0], policyListing());
    EXPECT_NE(listings[0].find("Carbon-Scaler\n"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, BothDriversExitTwoOnHostileSizesAndDurations)
{
    // gaia_serve runs under a timeout and off the default socket: a
    // daemon that accepted one of these inputs would listen until
    // killed.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_hostile";
    std::filesystem::create_directories(dir);
    const std::string binaries[] = {
        GAIA_RUN_BIN, "timeout 10 " + std::string(GAIA_SERVE_BIN) +
                          " --socket " + (dir / "sock").string()};
    for (const std::string &binary : binaries) {
        for (const char *flags :
             {"--span-days inf", "--span-days 1e300",
              "--jobs 100000000000000", "-w 1e300x1e300",
              "--spot-max-hours inf", "--startup-overhead-min 1e300",
              "--fault-backoff-min 1e300",
              "--fault-backoff-min 10081",
              "--fault-retries 16 --fault-backoff-min 803",
              "--fault outage:rate=0.1,hours=1e300"}) {
            const std::string command =
                binary + " " + flags + " >/dev/null 2>&1";
            const int status = std::system(command.c_str());
            ASSERT_NE(status, -1);
            EXPECT_TRUE(WIFEXITED(status)) << binary << " " << flags;
            EXPECT_EQ(WEXITSTATUS(status), 2)
                << binary << " " << flags;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, GaiaRunExitsTwoOnForecastsThatWouldOverflow)
{
    // Past the caps these inputs can overflow a forecast; the spike
    // repros once aborted Carbon-Scaler's allocator.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_overflow";
    const std::string elastic =
        " --scaling-policy Carbon-Scaler --elastic-profile linear:max=4"
        " --output-dir " +
        (dir / "out").string();
    for (const char *flags :
         {"--jobs 30 --fault spike:rate=0.3,hours=6,factor=inf",
          "--jobs 30 --fault spike:rate=0.3,hours=6,factor=1e308",
          "--workload azure --jobs 300 --forecast-noise inf",
          "--workload azure --jobs 300 --forecast-noise 1e308"}) {
        const std::string command = std::string(GAIA_RUN_BIN) + " " +
                                    flags + elastic +
                                    " >/dev/null 2>&1";
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    }
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, BothDriversExitTwoWhenTheJobLimitOutgrowsMemory)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtimes need the address space "
                    "the cap takes away";
#else
    // --jobs at its documented limit parses, but its trace cannot be
    // allocated under a 1 GiB address-space cap.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_memcap";
    std::filesystem::create_directories(dir);
    const std::string capped = "ulimit -v 1048576 && exec ";
    const std::string out = " --output-dir " + (dir / "out").string();
    const std::filesystem::path err = dir / "stderr.txt";
    const std::pair<std::string, std::string> drivers[] = {
        {"gaia_run", GAIA_RUN_BIN + out},
        {"gaia_serve",
         "timeout 10 " + std::string(GAIA_SERVE_BIN) + " --socket " +
             (dir / "sock").string()},
    };
    for (const auto &[name, binary] : drivers) {
        const std::string command =
            capped + binary + " --jobs 4294967295 --span-days 0.0001" +
            " >/dev/null 2>" + err.string();
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << name;
        EXPECT_EQ(WEXITSTATUS(status), 2) << name;

        // One "<driver>: ..." line on stderr.
        std::ifstream in(err);
        std::string line, rest;
        std::getline(in, line);
        EXPECT_EQ(line.rfind(name + ": ", 0), 0u) << line;
        EXPECT_FALSE(std::getline(in, rest)) << rest;
    }

    // The cap is not what fails: a 2M-job run fits under it.
    const std::string normal = capped + GAIA_RUN_BIN + out +
                               " --jobs 2000000 >/dev/null 2>&1";
    const int status = std::system(normal.c_str());
    ASSERT_NE(status, -1);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    std::filesystem::remove_all(dir);
#endif
}

TEST(CliRunner, GaiaRunPlacesSlicesPastTheThirtyTwoBitStart)
{
    // A job submitted a century in, a century long, that Ecovisor may
    // hold for a century: it finishes three centuries in. No slice
    // lasts 2^32 s, so its last one starts past 2^32 s, where a
    // 32-bit start would wrap.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_widest_start";
    std::filesystem::create_directories(dir);
    {
        std::ofstream jobs(dir / "jobs.csv");
        jobs << "id,submit,length,cpus\n1," << kMaxInputDuration << ","
             << kMaxInputDuration << ",1\n2,0,3600,1\n";
    }
    const std::string command =
        std::string(GAIA_RUN_BIN) + " --workload-csv " +
        (dir / "jobs.csv").string() +
        " --policy Ecovisor -w 876000x876000 --output-dir " +
        (dir / "out").string() + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_NE(status, -1);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    const CsvTable details =
        tryReadCsv((dir / "out" / "details.csv").string()).value();
    ASSERT_EQ(details.rowCount(), 2u);
    const auto column = [&](const char *name) {
        return details.tryColumnIndex(name).value();
    };
    // Rows follow the trace's submit order: job 2 comes first.
    ASSERT_EQ(details.cell(1, column("id")), "1");
    EXPECT_EQ(details.tryCellInt(1, column("start")).value(),
              3153636000);
    EXPECT_EQ(details.tryCellInt(1, column("finish")).value(),
              9460800000);
    EXPECT_EQ(details.tryCellInt(1, column("wait_s")).value(),
              3153600000);
    std::filesystem::remove_all(dir);
}

TEST(CliRunner, GaiaRunChargesIdleReservedPowerWhenWorkOutlastsTheHorizon)
{
    // Stragglers and week-long start delays run reserved work past
    // the reservation horizon derived from the nominal trace; the
    // idle-power share counts only the hours inside it, so the run
    // completes and writes its books.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "gaia_cli_idle_overrun";
    const std::string base =
        std::string(GAIA_RUN_BIN) +
        " --workload alibaba --jobs 50 --span-days 1 --reserved 1000"
        " --idle-power-fraction 0.5 --output-dir " +
        (dir / "out").string() + " ";
    for (const char *flags :
         {"--strategy res-first --fault straggler:rate=1,factor=100",
          "--strategy res-first --fault delay:rate=1,minutes=10080",
          "--strategy hybrid --fault straggler:rate=1,factor=20"}) {
        std::filesystem::remove_all(dir);
        const std::string command =
            base + flags + " >/dev/null 2>&1";
        const int status = std::system(command.c_str());
        ASSERT_NE(status, -1);
        EXPECT_TRUE(WIFEXITED(status)) << flags;
        EXPECT_EQ(WEXITSTATUS(status), 0) << flags;
        for (const char *csv :
             {"aggregate.csv", "details.csv", "allocation.csv"}) {
            EXPECT_TRUE(std::filesystem::exists(dir / "out" / csv))
                << flags << ": " << csv;
        }
    }
    std::filesystem::remove_all(dir);
}
#endif

TEST(CliRunner, FaultFlagsFlowIntoTheScenario)
{
    CliOptions options;
    const Result<CliAction> action = parseCliOptions(
        {"--fault", "outage:rate=0.2,hours=3", "--fault",
         "storm:rate=0.1", "--fault-seed", "7", "--fault-retries",
         "4", "--fault-backoff-min", "10", "--fault-spot-retries",
         "1"},
        options);
    ASSERT_TRUE(action.isOk()) << action.status().toString();
    const Result<ScenarioSpec> spec = scenarioFromOptions(options);
    ASSERT_TRUE(spec.isOk()) << spec.status().toString();
    const FaultSpec &fault = spec.value().fault;
    EXPECT_DOUBLE_EQ(fault.outage_rate, 0.2);
    EXPECT_EQ(fault.outage_duration, hours(3));
    EXPECT_DOUBLE_EQ(fault.storm_rate, 0.1);
    EXPECT_EQ(fault.seed, 7u);
    EXPECT_EQ(fault.cis_max_retries, 4);
    EXPECT_EQ(fault.cis_retry_backoff, minutes(10));
    EXPECT_EQ(fault.storm_spot_retries, 1);
    EXPECT_TRUE(fault.enabled());
}

TEST(CliRunner, BadFaultSpecIsRejected)
{
    CliOptions options;
    const Result<CliAction> action = parseCliOptions(
        {"--fault", "outage:rate=2"}, options);
    ASSERT_TRUE(action.isOk());
    const Result<ScenarioSpec> spec = scenarioFromOptions(options);
    ASSERT_FALSE(spec.isOk());
    EXPECT_NE(spec.status().message().find("rate must be in"),
              std::string::npos)
        << spec.status().message();
}

TEST(CliRunner, ResampleWithoutCsvRejected)
{
    CliOptions options;
    const Result<CliAction> action =
        parseCliOptions({"--resample"}, options);
    ASSERT_FALSE(action.isOk());
    EXPECT_NE(
        action.status().message().find("requires --workload-csv"),
        std::string::npos);
}

} // namespace
} // namespace gaia
