/** @file Tests for gaia_run option parsing. */

#include "cli/options.h"

#include <gtest/gtest.h>

#include "workload/job.h"

namespace gaia {
namespace {

CliOptions
parse(const std::vector<std::string> &args)
{
    CliOptions options;
    const Result<CliAction> action = parseCliOptions(args, options);
    EXPECT_TRUE(action.isOk()) << action.status().toString();
    if (action.isOk()) {
        EXPECT_EQ(*action, CliAction::Run);
    }
    return options;
}

/** Parse expecting failure; returns the error status. */
Status
parseError(const std::vector<std::string> &args)
{
    CliOptions options;
    const Result<CliAction> action = parseCliOptions(args, options);
    EXPECT_FALSE(action.isOk());
    return action.isOk() ? Status::ok() : action.status();
}

bool
messageContains(const Status &status, const std::string &needle)
{
    return status.message().find(needle) != std::string::npos;
}

TEST(CliOptions, DefaultsMatchArtifact)
{
    const CliOptions o = parse({});
    EXPECT_EQ(o.workload, "alibaba");
    EXPECT_EQ(o.policy, "Carbon-Time");
    EXPECT_EQ(o.strategy, "on-demand");
    EXPECT_EQ(o.short_wait, 6 * kSecondsPerHour);
    EXPECT_EQ(o.long_wait, 24 * kSecondsPerHour);
    EXPECT_EQ(o.reserved, 0);
    EXPECT_EQ(o.resolvedStrategy().value(),
              ResourceStrategy::OnDemandOnly);
}

TEST(CliOptions, ParsesFullCommandLine)
{
    const CliOptions o = parse(
        {"--workload", "azure", "--jobs", "500", "--span-days",
         "14", "--region", "CA-US", "--policy", "Lowest-Window",
         "--strategy", "spot-res", "--reserved", "12",
         "--eviction-rate", "0.1", "--spot-max-hours", "6", "-w",
         "3x48", "--seed", "99", "--output-dir", "/tmp/x",
         "--forecast-noise", "0.2"});
    EXPECT_EQ(o.workload, "azure");
    EXPECT_EQ(o.jobs, 500u);
    EXPECT_EQ(o.span, days(14));
    EXPECT_EQ(o.region, "CA-US");
    EXPECT_EQ(o.policy, "Lowest-Window");
    EXPECT_EQ(o.resolvedStrategy().value(),
              ResourceStrategy::SpotReserved);
    EXPECT_EQ(o.reserved, 12);
    EXPECT_DOUBLE_EQ(o.eviction_rate, 0.1);
    EXPECT_EQ(o.spot_max_length, hours(6));
    EXPECT_EQ(o.short_wait, 3 * kSecondsPerHour);
    EXPECT_EQ(o.long_wait, 48 * kSecondsPerHour);
    EXPECT_EQ(o.seed, 99u);
    EXPECT_EQ(o.output_dir, "/tmp/x");
    EXPECT_DOUBLE_EQ(o.forecast_noise, 0.2);
}

TEST(CliOptions, HelpShortCircuits)
{
    CliOptions options;
    EXPECT_EQ(parseCliOptions({"--help"}, options).value(),
              CliAction::ShowHelp);
    EXPECT_EQ(parseCliOptions({"-h"}, options).value(),
              CliAction::ShowHelp);
    // Even with malformed flags after it.
    EXPECT_EQ(parseCliOptions({"-h", "--bogus"}, options).value(),
              CliAction::ShowHelp);
    EXPECT_FALSE(cliUsage().empty());
}

TEST(CliOptions, ListPoliciesShortCircuits)
{
    CliOptions options;
    EXPECT_EQ(parseCliOptions({"--list-policies"}, options).value(),
              CliAction::ListPolicies);
    EXPECT_NE(cliUsage().find("--list-policies"),
              std::string::npos);
}

TEST(CliOptions, WaitingSpecParsing)
{
    Seconds s = 0, l = 0;
    EXPECT_TRUE(parseWaitingSpec("0x0", s, l).isOk());
    EXPECT_EQ(s, 0);
    EXPECT_EQ(l, 0);
    EXPECT_TRUE(parseWaitingSpec("1.5x12", s, l).isOk());
    EXPECT_EQ(s, hours(1.5));
    EXPECT_EQ(l, hours(12));
}

TEST(CliOptions, StrategyAliases)
{
    CliOptions o;
    o.strategy = "RES-FIRST";
    EXPECT_EQ(o.resolvedStrategy().value(),
              ResourceStrategy::ReservedFirst);
    o.strategy = "OnDemand";
    EXPECT_EQ(o.resolvedStrategy().value(),
              ResourceStrategy::OnDemandOnly);
    o.strategy = "spot-reserved";
    EXPECT_EQ(o.resolvedStrategy().value(),
              ResourceStrategy::SpotReserved);
}

TEST(CliOptions, UnknownStrategyIsNotFound)
{
    CliOptions o;
    o.strategy = "magic";
    const Result<ResourceStrategy> r = o.resolvedStrategy();
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
    EXPECT_TRUE(messageContains(r.status(), "unknown strategy"));
}

TEST(CliOptions, WorkloadCsvBypassesNameCheck)
{
    const CliOptions o =
        parse({"--workload-csv", "/tmp/jobs.csv"});
    EXPECT_EQ(o.workload_csv, "/tmp/jobs.csv");
}

TEST(CliOptions, MalformedInputYieldsErrorStatus)
{
    EXPECT_TRUE(messageContains(parseError({"--bogus"}),
                                "unknown argument"));
    EXPECT_TRUE(messageContains(parseError({"--jobs"}),
                                "missing value"));
    EXPECT_TRUE(messageContains(parseError({"--jobs", "-5"}),
                                "must be positive"));
    EXPECT_TRUE(
        messageContains(parseError({"--workload", "slurmzilla"}),
                        "unknown workload"));
    EXPECT_TRUE(messageContains(parseError({"--strategy", "magic"}),
                                "unknown strategy"));
    EXPECT_TRUE(messageContains(parseError({"-w", "6-24"}),
                                "SHORTxLONG"));
    EXPECT_TRUE(messageContains(parseError({"-w", "-1x4"}),
                                "non-negative"));
    EXPECT_TRUE(messageContains(parseError({"--jobs", "lots"}),
                                "cannot parse"));
    // 2^32 + 40 once wrapped to 40 reserved cores.
    EXPECT_TRUE(messageContains(parseError({"--reserved", "4294967336"}),
                                "--reserved: 4294967336 is out of range"));
}

TEST(CliOptions, HostileSynthesisSizesAreRejected)
{
    // Each of these once reached an undefined double-to-int64 cast in
    // days() or an uncaught std::bad_alloc in trace synthesis.
    for (const char *span : {"inf", "1e300", "36501"}) {
        const Status status = parseError({"--span-days", span});
        EXPECT_EQ(status.code(), ErrorCode::InvalidArgument) << span;
        EXPECT_TRUE(messageContains(status, "--span-days must be at most"))
            << span << ": " << status.message();
    }
    EXPECT_TRUE(messageContains(parseError({"--span-days", "nan"}),
                                "must be positive"));
    EXPECT_TRUE(messageContains(parseError({"--span-days", "-inf"}),
                                "must be positive"));
    EXPECT_EQ(parse({"--span-days", "36500"}).span, days(36500));

    for (const char *jobs : {"100000000000000", "4294967296"}) {
        const Status status = parseError({"--jobs", jobs});
        EXPECT_EQ(status.code(), ErrorCode::InvalidArgument) << jobs;
        EXPECT_TRUE(messageContains(status, "--jobs must be at most"))
            << jobs << ": " << status.message();
    }
    EXPECT_EQ(parse({"--jobs", "4294967295"}).jobs, kMaxJobs);
}

TEST(CliOptions, HostileDurationsAreRejected)
{
    // Each of these once reached an undefined double-to-int64 cast in
    // hours() or minutes(); one checked conversion bounds them all.
    for (const auto &[flag, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"-w", "1e300x1e300"},
             {"-w", "nanx24"},
             {"--spot-max-hours", "inf"},
             {"--spot-max-hours", "876000.1"},
             {"--startup-overhead-min", "1e300"},
             {"--startup-overhead-min", "-inf"},
             {"--fault-backoff-min", "1e300"}}) {
        EXPECT_EQ(parseError({flag, value}).code(),
                  ErrorCode::InvalidArgument)
            << flag << " " << value;
    }
    EXPECT_TRUE(messageContains(parseError({"-w", "6x1e300"}),
                                "long waiting hours must be at most "
                                "36500 days"));
    // The limit is one century in every unit, and it is inclusive.
    EXPECT_EQ(parse({"-w", "0x876000"}).long_wait, kMaxInputDuration);
    EXPECT_EQ(parse({"--spot-max-hours", "876000"}).spot_max_length,
              kMaxInputDuration);
    EXPECT_EQ(parse({"--fault-backoff-min", "52560000"}).fault_backoff,
              kMaxInputDuration);
}

TEST(CliOptions, UnknownArgumentErrorIncludesUsage)
{
    const Status status = parseError({"--bogus"});
    EXPECT_EQ(status.code(), ErrorCode::InvalidArgument);
    EXPECT_TRUE(messageContains(status, "--policy"));
}

TEST(CliOptions, NewFidelityFlags)
{
    const CliOptions o = parse(
        {"--forecaster", "Profile", "--startup-overhead-min", "5",
         "--idle-power-fraction", "0.4"});
    EXPECT_EQ(o.forecaster, "profile");
    EXPECT_EQ(o.startup_overhead, minutes(5));
    EXPECT_DOUBLE_EQ(o.idle_power_fraction, 0.4);
}

TEST(CliOptions, NewFlagValidation)
{
    EXPECT_TRUE(
        messageContains(parseError({"--forecaster", "crystal-ball"}),
                        "unknown forecaster"));
    EXPECT_TRUE(
        messageContains(parseError({"--idle-power-fraction", "1.5"}),
                        "in [0,1]"));
    EXPECT_TRUE(messageContains(
        parseError({"--startup-overhead-min", "-1"}),
        "non-negative"));
}

TEST(CliOptions, ObservabilitySinkFlags)
{
    const CliOptions defaults = parse({});
    EXPECT_TRUE(defaults.metrics_out.empty());
    EXPECT_TRUE(defaults.trace_out.empty());
    EXPECT_FALSE(defaults.verbose);

    const CliOptions o =
        parse({"--metrics-out", "m.json", "--trace-out", "t.json",
               "--verbose"});
    EXPECT_EQ(o.metrics_out, "m.json");
    EXPECT_EQ(o.trace_out, "t.json");
    EXPECT_TRUE(o.verbose);

    EXPECT_TRUE(messageContains(parseError({"--metrics-out"}),
                                "--metrics-out"));
    EXPECT_TRUE(messageContains(parseError({"--trace-out"}),
                                "--trace-out"));
}

TEST(CliOptions, ElasticScalingFlags)
{
    const CliOptions defaults = parse({});
    EXPECT_TRUE(defaults.elastic_profile.empty());

    const CliOptions o =
        parse({"--scaling-policy", "Carbon-Scaler",
               "--elastic-profile", "linear:max=4,min=1"});
    EXPECT_EQ(o.policy, "Carbon-Scaler");
    EXPECT_EQ(o.elastic_profile, "linear:max=4,min=1");

    // --scaling-policy is a straight alias for --policy.
    EXPECT_EQ(parse({"--scaling-policy", "Elastic-NoWait"}).policy,
              "Elastic-NoWait");

    // Profile specs are validated at parse time, not at run time.
    EXPECT_TRUE(messageContains(
        parseError({"--elastic-profile", "bogus:max=2"}),
        "unknown elastic profile kind"));
    EXPECT_TRUE(messageContains(parseError({"--elastic-profile"}),
                                "missing value"));
}

TEST(CliOptions, EqualsSpellingMatchesSpaceSpelling)
{
    const CliOptions o = parse(
        {"--policy=Lowest-Window", "--jobs=500",
         "--trace-out=t.json", "--waiting=3x48"});
    EXPECT_EQ(o.policy, "Lowest-Window");
    EXPECT_EQ(o.jobs, 500u);
    EXPECT_EQ(o.trace_out, "t.json");
    EXPECT_EQ(o.short_wait, 3 * kSecondsPerHour);
    EXPECT_EQ(o.long_wait, 48 * kSecondsPerHour);

    // A value containing '=' splits only at the first one.
    EXPECT_EQ(parse({"--output-dir=a=b"}).output_dir, "a=b");
    // Unknown flags still error in the = spelling.
    EXPECT_TRUE(messageContains(parseError({"--nonsense=1"}),
                                "--nonsense"));
}

} // namespace
} // namespace gaia
