#include "cli/options.h"

#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "core/cis.h"
#include "core/policy_factory.h"
#include "workload/elastic_profile.h"
#include "workload/job.h"

namespace gaia {

Result<ResourceStrategy>
CliOptions::resolvedStrategy() const
{
    const std::string key = toLower(strategy);
    if (key == "on-demand" || key == "ondemand")
        return ResourceStrategy::OnDemandOnly;
    if (key == "hybrid")
        return ResourceStrategy::HybridGreedy;
    if (key == "res-first" || key == "reserved-first")
        return ResourceStrategy::ReservedFirst;
    if (key == "spot-first")
        return ResourceStrategy::SpotFirst;
    if (key == "spot-res" || key == "spot-reserved")
        return ResourceStrategy::SpotReserved;
    return Status::notFound(
        "unknown strategy '", strategy,
        "'; expected on-demand, hybrid, res-first, spot-first, "
        "or spot-res");
}

Status
parseWaitingSpec(const std::string &spec, Seconds &short_wait,
                 Seconds &long_wait)
{
    const std::size_t sep = spec.find('x');
    GAIA_REQUIRE(sep != std::string::npos, "waiting spec '", spec,
                 "' must be SHORTxLONG hours, e.g. 6x24");
    GAIA_TRY_ASSIGN(const double short_h,
                    tryParseDouble(spec.substr(0, sep),
                                   "short waiting hours"));
    GAIA_TRY_ASSIGN(const double long_h,
                    tryParseDouble(spec.substr(sep + 1),
                                   "long waiting hours"));
    GAIA_TRY_ASSIGN(short_wait, tryDuration(short_h, kSecondsPerHour,
                                            "short waiting hours"));
    GAIA_TRY_ASSIGN(long_wait, tryDuration(long_h, kSecondsPerHour,
                                           "long waiting hours"));
    return Status::ok();
}

std::string
policyListing()
{
    std::string out;
    for (const std::string &name : allPolicyNames())
        out += name + "\n";
    // The elastic family is listed apart from the paper's Table 1
    // set (see elasticPolicyNames()).
    for (const std::string &name : elasticPolicyNames())
        out += name + "\n";
    return out;
}

std::string
cliUsage()
{
    std::ostringstream oss;
    oss << "gaia_run — carbon-, performance-, and cost-aware batch "
           "scheduling\n\n"
           "Workload (pick one):\n"
           "  --workload NAME       alibaba | azure | mustang | "
           "motivating (default alibaba)\n"
           "  --workload-csv PATH   JobTrace CSV "
           "(id,submit,length,cpus)\n"
           "  --resample            apply the paper's sampling "
           "pipeline to the CSV\n"
           "                        (replicate to span, filter, "
           "sample --jobs arrivals)\n"
           "  --jobs N              synthesized job count "
           "(default 1000)\n"
           "  --span-days D         synthesized arrival span "
           "(default 7)\n\n"
           "Carbon intensity (pick one):\n"
           "  --region NAME         SA-AU | ON-CA | CA-US | NL | "
           "KY-US | SE | TX-US (default SA-AU)\n"
           "  --carbon-csv PATH     CarbonTrace CSV "
           "(hour,carbon_intensity)\n\n"
           "Scheduling:\n"
           "  --policy NAME         NoWait | AllWait-Threshold | "
           "Wait-Awhile | Ecovisor |\n"
           "                        Lowest-Slot | Lowest-Window | "
           "Carbon-Time (default)\n"
           "  --scaling-policy NAME Elastic-NoWait | Carbon-Scaler "
           "(elastic family; alias for --policy)\n"
           "  --elastic-profile SPEC  the run's scaling profile, "
           "applied to every job: off (default) |\n"
           "                        linear:max=K[,min=M] | "
           "diminishing:max=K,alpha=A[,min=M] |\n"
           "                        list:rates=R0+R1+...[,min=M]\n"
           "  --strategy NAME       on-demand (default) | hybrid | "
           "res-first | spot-first | spot-res\n"
           "  -w, --waiting SxL     max waiting hours, short x "
           "long (default 6x24)\n"
           "  --forecast-noise F    CIS forecast error sigma, 0 "
           "to 100 (default 0)\n"
           "  --forecaster NAME     oracle (default) | persistence "
           "| profile\n\n"
           "Cluster:\n"
           "  --reserved N          reserved cores (default 0)\n"
           "  --eviction-rate F     spot eviction probability per "
           "hour (default 0)\n"
           "  --spot-max-hours H    spot length bound (default 2)\n"
           "  --startup-overhead-min M  per-acquisition instance "
           "overhead (default 0)\n"
           "  --idle-power-fraction F   idle reserved power share "
           "(default 0)\n\n"
           "Fault injection (off unless --fault is given):\n"
           "  --fault SPEC          fault clauses "
           "'kind:key=val,...' joined by ';', e.g.\n"
           "                        "
           "'outage:rate=0.05,hours=2;storm:rate=0.1'; kinds: "
           "outage,\n"
           "                        stale, spike, gap, storm, "
           "straggler, delay; repeatable\n"
           "  --fault-seed S        fault-decision hash seed "
           "(default 1)\n"
           "  --fault-retries N     carbon-source retries before "
           "degrading (default 3)\n"
           "  --fault-backoff-min M first retry backoff, minutes; "
           "doubles per attempt (default 5)\n"
           "  --fault-spot-retries N  spot re-attempts after a "
           "storm eviction (default 3)\n\n"
           "Misc:\n"
           "  --seed S              RNG seed (default 1)\n"
           "  --output-dir DIR      CSV output directory "
           "(default gaia_results)\n"
           "  --metrics-out PATH    write a metrics-snapshot JSON "
           "after the run\n"
           "  --trace-out PATH      write a Chrome/Perfetto "
           "trace_event JSON after the run\n"
           "  --verbose             print the metrics summary "
           "table after the run\n"
           "  --export-workload PATH  also write the realized job "
           "trace as CSV\n"
           "                        (the stream a gaia_serve client "
           "replays)\n"
           "  --print-fingerprint   print 'fingerprint <hex>' after "
           "the run (parity\n"
           "                        oracle against a drained "
           "gaia_serve daemon)\n"
           "  --list-policies       print policy names and exit\n"
           "  -h, --help            this text\n"
           "\nAll flags also accept the --flag=value spelling.\n";
    return oss.str();
}

Result<CliAction>
parseCliOptions(const std::vector<std::string> &raw_args,
                CliOptions &options)
{
    const std::vector<std::string> args =
        expandEqualsArgs(raw_args);
    const auto need_value =
        [&](std::size_t i,
            const std::string &flag) -> Result<std::string> {
        if (i + 1 >= args.size())
            return Status::invalidArgument("missing value for ",
                                           flag);
        return args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "-h" || arg == "--help")
            return CliAction::ShowHelp;
        if (arg == "--list-policies")
            return CliAction::ListPolicies;
        if (arg == "--workload") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            options.workload = toLower(v);
        } else if (arg == "--workload-csv") {
            GAIA_TRY_ASSIGN(options.workload_csv,
                            need_value(i++, arg));
        } else if (arg == "--resample") {
            options.resample = true;
        } else if (arg == "--jobs") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const std::int64_t n,
                            tryParseInt(v, "--jobs"));
            GAIA_REQUIRE(n > 0, "--jobs must be positive");
            GAIA_REQUIRE(static_cast<std::size_t>(n) <= kMaxJobs,
                         "--jobs must be at most ", kMaxJobs);
            options.jobs = static_cast<std::size_t>(n);
        } else if (arg == "--span-days") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const double d,
                            tryParseDouble(v, "--span-days"));
            GAIA_REQUIRE(d > 0.0, "--span-days must be positive");
            GAIA_TRY_ASSIGN(options.span,
                            tryDuration(d, kSecondsPerDay, arg));
        } else if (arg == "--region") {
            GAIA_TRY_ASSIGN(options.region, need_value(i++, arg));
        } else if (arg == "--carbon-csv") {
            GAIA_TRY_ASSIGN(options.carbon_csv,
                            need_value(i++, arg));
        } else if (arg == "--policy" ||
                   arg == "--scaling-policy") {
            GAIA_TRY_ASSIGN(options.policy, need_value(i++, arg));
        } else if (arg == "--elastic-profile") {
            GAIA_TRY_ASSIGN(options.elastic_profile,
                            need_value(i++, arg));
        } else if (arg == "--strategy") {
            GAIA_TRY_ASSIGN(options.strategy, need_value(i++, arg));
        } else if (arg == "-w" || arg == "--waiting") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY(parseWaitingSpec(v, options.short_wait,
                                      options.long_wait));
        } else if (arg == "--forecast-noise") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(options.forecast_noise,
                            tryParseDouble(v, "--forecast-noise"));
            GAIA_REQUIRE(options.forecast_noise >= 0.0 &&
                             options.forecast_noise <=
                                 kMaxForecastNoise,
                         "--forecast-noise must be in [0, ",
                         kMaxForecastNoise, "], got ",
                         options.forecast_noise);
        } else if (arg == "--forecaster") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            options.forecaster = toLower(v);
            GAIA_REQUIRE(options.forecaster == "oracle" ||
                             options.forecaster == "persistence" ||
                             options.forecaster == "profile",
                         "unknown forecaster '", options.forecaster,
                         "'; expected oracle, persistence, or "
                         "profile");
        } else if (arg == "--startup-overhead-min") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const double m,
                            tryParseDouble(v, "--startup-overhead-min"));
            GAIA_TRY_ASSIGN(options.startup_overhead,
                            tryDuration(m, kSecondsPerMinute, arg));
        } else if (arg == "--idle-power-fraction") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(
                options.idle_power_fraction,
                tryParseDouble(v, "--idle-power-fraction"));
            GAIA_REQUIRE(options.idle_power_fraction >= 0.0 &&
                             options.idle_power_fraction <= 1.0,
                         "--idle-power-fraction must be in [0,1]");
        } else if (arg == "--reserved") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const std::int64_t n,
                            tryParseInt(v, "--reserved"));
            GAIA_REQUIRE(n >= 0, "--reserved must be non-negative");
            GAIA_TRY_ASSIGN(options.reserved,
                            tryNarrowInt(n, "--reserved"));
        } else if (arg == "--eviction-rate") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(options.eviction_rate,
                            tryParseDouble(v, "--eviction-rate"));
        } else if (arg == "--spot-max-hours") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const double h,
                            tryParseDouble(v, "--spot-max-hours"));
            GAIA_TRY_ASSIGN(options.spot_max_length,
                            tryDuration(h, kSecondsPerHour, arg));
        } else if (arg == "--fault") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            // Repeated flags accumulate clauses; FaultSpec::merge
            // validates the combined spec at run time.
            if (options.fault.empty())
                options.fault = v;
            else
                options.fault += ";" + v;
        } else if (arg == "--fault-seed") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const std::int64_t n,
                            tryParseInt(v, "--fault-seed"));
            options.fault_seed = static_cast<std::uint64_t>(n);
        } else if (arg == "--fault-retries") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const std::int64_t n,
                            tryParseInt(v, "--fault-retries"));
            GAIA_REQUIRE(n >= 0 && n <= 16,
                         "--fault-retries must be in [0,16]");
            options.fault_retries =
                static_cast<std::uint32_t>(n);
        } else if (arg == "--fault-backoff-min") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const double m,
                            tryParseDouble(v, "--fault-backoff-min"));
            GAIA_REQUIRE(m > 0.0, "--fault-backoff-min must be positive");
            GAIA_TRY_ASSIGN(options.fault_backoff,
                            tryDuration(m, kSecondsPerMinute, arg));
        } else if (arg == "--fault-spot-retries") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const std::int64_t n,
                            tryParseInt(v, "--fault-spot-retries"));
            GAIA_REQUIRE(n >= 0 && n <= 16,
                         "--fault-spot-retries must be in [0,16]");
            options.fault_spot_retries =
                static_cast<std::uint32_t>(n);
        } else if (arg == "--seed") {
            GAIA_TRY_ASSIGN(const std::string v,
                            need_value(i++, arg));
            GAIA_TRY_ASSIGN(const std::int64_t n,
                            tryParseInt(v, "--seed"));
            options.seed = static_cast<std::uint64_t>(n);
        } else if (arg == "--output-dir") {
            GAIA_TRY_ASSIGN(options.output_dir,
                            need_value(i++, arg));
        } else if (arg == "--metrics-out") {
            GAIA_TRY_ASSIGN(options.metrics_out,
                            need_value(i++, arg));
        } else if (arg == "--trace-out") {
            GAIA_TRY_ASSIGN(options.trace_out,
                            need_value(i++, arg));
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--export-workload") {
            GAIA_TRY_ASSIGN(options.export_workload,
                            need_value(i++, arg));
        } else if (arg == "--print-fingerprint") {
            options.print_fingerprint = true;
        } else {
            return Status::invalidArgument("unknown argument '", arg,
                                           "'\n\n", cliUsage());
        }
    }

    // Cross-checks that do not require running anything.
    GAIA_TRY(options.resolvedStrategy());
    GAIA_TRY(parseElasticProfile(options.elastic_profile));
    GAIA_REQUIRE(!options.resample || !options.workload_csv.empty(),
                 "--resample requires --workload-csv");
    if (options.workload_csv.empty()) {
        const std::string w = options.workload;
        GAIA_REQUIRE(w == "alibaba" || w == "azure" ||
                         w == "mustang" || w == "motivating",
                     "unknown workload '", options.workload,
                     "'; expected alibaba, azure, mustang, or "
                     "motivating");
    }
    return CliAction::Run;
}

} // namespace gaia
