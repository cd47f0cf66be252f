#include "fault/fault_spec.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/strings.h"

namespace gaia {

namespace {

/** Spiked forecasts of the largest intensity a carbon trace accepts
 *  stay finite, and so do the integrals over them. */
constexpr double kMaxSpikeFactor = 1000.0;

Status
checkRate(const char *what, double rate)
{
    GAIA_REQUIRE(rate >= 0.0 && rate <= 1.0, what,
                 " rate must be in [0, 1], got ", rate);
    return Status::ok();
}

Status
checkDuration(const char *what, Seconds duration)
{
    GAIA_REQUIRE(duration > 0, what, " duration must be positive, "
                 "got ", duration, "s");
    GAIA_REQUIRE(duration <= kMaxFaultDuration, what,
                 " duration exceeds the ", kMaxFaultDuration /
                 kSecondsPerDay, "-day bound: ", duration, "s");
    return Status::ok();
}

/** One `key=value` pair inside a clause. */
struct Setting
{
    std::string key;
    double value = 0.0;
};

Result<std::vector<Setting>>
parseSettings(const std::string &kind, const std::string &body)
{
    std::vector<Setting> settings;
    for (const std::string &pair : split(body, ',')) {
        const std::size_t eq = pair.find('=');
        GAIA_REQUIRE(eq != std::string::npos, "fault clause '", kind,
                     "': expected key=value, got '", pair, "'");
        Setting s;
        s.key = trim(pair.substr(0, eq));
        GAIA_TRY_ASSIGN(s.value,
                        tryParseDouble(trim(pair.substr(eq + 1)),
                                       "fault " + kind + " " +
                                           s.key));
        settings.push_back(std::move(s));
    }
    GAIA_REQUIRE(!settings.empty(), "fault clause '", kind,
                 "' has no settings");
    return settings;
}

/** Applies one clause's settings, erroring on keys the kind does
 *  not accept. */
Status
applyClause(FaultSpec &spec, const std::string &kind,
            const std::vector<Setting> &settings)
{
    for (const Setting &s : settings) {
        const std::string what = "fault " + kind + " " + s.key;
        bool ok = false;
        if (s.key == "rate") {
            ok = true;
            if (kind == "outage")
                spec.outage_rate = s.value;
            else if (kind == "stale")
                spec.stale_rate = s.value;
            else if (kind == "spike")
                spec.spike_rate = s.value;
            else if (kind == "gap")
                spec.gap_rate = s.value;
            else if (kind == "storm")
                spec.storm_rate = s.value;
            else if (kind == "straggler")
                spec.straggler_rate = s.value;
            else if (kind == "delay")
                spec.delay_rate = s.value;
            else
                ok = false;
        } else if (s.key == "hours") {
            GAIA_TRY_ASSIGN(const Seconds duration,
                            tryDuration(s.value, kSecondsPerHour, what));
            ok = true;
            if (kind == "outage")
                spec.outage_duration = duration;
            else if (kind == "stale")
                spec.stale_duration = duration;
            else if (kind == "spike")
                spec.spike_duration = duration;
            else
                ok = false;
        } else if (s.key == "minutes" && kind == "delay") {
            GAIA_TRY_ASSIGN(
                spec.delay_duration,
                tryDuration(s.value, kSecondsPerMinute, what));
            ok = true;
        } else if (s.key == "factor") {
            ok = true;
            if (kind == "spike")
                spec.spike_factor = s.value;
            else if (kind == "straggler")
                spec.straggler_factor = s.value;
            else
                ok = false;
        }
        GAIA_REQUIRE(ok, "fault clause '", kind,
                     "' does not accept key '", s.key, "'");
    }
    return Status::ok();
}

} // namespace

bool
FaultSpec::anyCisFault() const
{
    return outage_rate > 0.0 || stale_rate > 0.0 ||
           spike_rate > 0.0 || gap_rate > 0.0;
}

bool
FaultSpec::anyClusterFault() const
{
    return storm_rate > 0.0 || straggler_rate > 0.0 ||
           delay_rate > 0.0;
}

bool
FaultSpec::enabled() const
{
    return anyCisFault() || anyClusterFault();
}

Status
FaultSpec::validate() const
{
    GAIA_TRY(checkRate("outage", outage_rate));
    GAIA_TRY(checkRate("stale", stale_rate));
    GAIA_TRY(checkRate("spike", spike_rate));
    GAIA_TRY(checkRate("gap", gap_rate));
    GAIA_TRY(checkRate("storm", storm_rate));
    GAIA_TRY(checkRate("straggler", straggler_rate));
    GAIA_TRY(checkRate("delay", delay_rate));
    GAIA_TRY(checkDuration("outage", outage_duration));
    GAIA_TRY(checkDuration("stale", stale_duration));
    GAIA_TRY(checkDuration("spike", spike_duration));
    GAIA_TRY(checkDuration("delay", delay_duration));
    GAIA_REQUIRE(spike_factor > 0.0 && spike_factor <= kMaxSpikeFactor,
                 "spike factor must be in (0, ", kMaxSpikeFactor,
                 "], got ", spike_factor);
    GAIA_REQUIRE(straggler_factor >= 1.0 &&
                     std::isfinite(straggler_factor),
                 "straggler factor must be finite and >= 1, got ",
                 straggler_factor);
    GAIA_REQUIRE(cis_max_retries >= 0 && cis_max_retries <= 16,
                 "cis retry budget must be in [0, 16], got ",
                 cis_max_retries);
    GAIA_TRY(checkDuration("cis retry backoff", cis_retry_backoff));
    // The ladder's probes wait backoff x (1 + 2 + ... + 2^(n-1)) in
    // all. Bounded by a century like any input duration, it keeps
    // every admitted arrival within 2^32 s of its submit time, which
    // the outcome's 32-bit arrival offset relies on.
    const Seconds ladder =
        cis_retry_backoff * ((Seconds{1} << cis_max_retries) - 1);
    GAIA_REQUIRE(ladder <= kMaxInputDuration, "cis retry ladder of ",
                 cis_max_retries, " retries from a ", cis_retry_backoff,
                 "s backoff waits ", ladder, "s, past the ",
                 kMaxInputDuration, " s limit");
    GAIA_REQUIRE(storm_spot_retries >= 0 &&
                     storm_spot_retries <= kMaxStormSpotRetries,
                 "storm spot-retry budget must be in [0, ",
                 kMaxStormSpotRetries, "], got ", storm_spot_retries);
    return Status::ok();
}

std::string
FaultSpec::key() const
{
    if (!enabled())
        return "off";
    std::ostringstream oss;
    if (outage_rate > 0.0)
        oss << "outage=" << outage_rate << "/" << outage_duration
            << ";";
    if (stale_rate > 0.0)
        oss << "stale=" << stale_rate << "/" << stale_duration
            << ";";
    if (spike_rate > 0.0)
        oss << "spike=" << spike_rate << "/" << spike_duration
            << "x" << spike_factor << ";";
    if (gap_rate > 0.0)
        oss << "gap=" << gap_rate << ";";
    if (storm_rate > 0.0)
        oss << "storm=" << storm_rate << ";";
    if (straggler_rate > 0.0)
        oss << "straggler=" << straggler_rate << "x"
            << straggler_factor << ";";
    if (delay_rate > 0.0)
        oss << "delay=" << delay_rate << "/" << delay_duration
            << ";";
    oss << "retries=" << cis_max_retries << "/"
        << cis_retry_backoff << ";spot=" << storm_spot_retries
        << ";seed=" << seed;
    return oss.str();
}

Status
FaultSpec::merge(const std::string &text)
{
    for (const std::string &raw : split(text, ';')) {
        const std::string clause(trim(raw));
        if (clause.empty())
            continue;
        const std::size_t colon = clause.find(':');
        GAIA_REQUIRE(colon != std::string::npos,
                     "fault clause '", clause,
                     "' must be kind:key=value[,key=value...]");
        const std::string kind(trim(clause.substr(0, colon)));
        GAIA_REQUIRE(kind == "outage" || kind == "stale" ||
                         kind == "spike" || kind == "gap" ||
                         kind == "storm" || kind == "straggler" ||
                         kind == "delay",
                     "unknown fault kind '", kind,
                     "'; expected outage, stale, spike, gap, "
                     "storm, straggler, or delay");
        GAIA_TRY_ASSIGN(
            const std::vector<Setting> settings,
            parseSettings(kind, clause.substr(colon + 1)));
        GAIA_TRY(applyClause(*this, kind, settings));
    }
    return Status::ok();
}

Result<FaultSpec>
FaultSpec::parse(const std::string &text)
{
    FaultSpec spec;
    GAIA_TRY(spec.merge(text));
    GAIA_TRY(spec.validate());
    return spec;
}

} // namespace gaia
