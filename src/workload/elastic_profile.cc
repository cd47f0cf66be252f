#include "workload/elastic_profile.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace gaia {

double
ElasticProfile::throughputAt(int instances) const
{
    if (marginal.empty()) {
        GAIA_ASSERT(instances == 1, "fixed job queried at width ",
                    instances);
        return 1.0;
    }
    GAIA_ASSERT(instances >= 1 &&
                    instances <= maxInstances(),
                "width ", instances, " outside profile [1, ",
                maxInstances(), "]");
    double rate = 0.0;
    for (int k = 0; k < instances; ++k)
        rate += marginal[static_cast<std::size_t>(k)];
    return rate;
}

bool
ElasticProfile::concave() const
{
    for (std::size_t k = 1; k < marginal.size(); ++k) {
        if (marginal[k] > marginal[k - 1])
            return false;
    }
    return true;
}

Status
ElasticProfile::validate() const
{
    if (marginal.empty()) {
        GAIA_REQUIRE(min_instances == 1,
                     "fixed job with min_instances ",
                     min_instances);
        return Status::ok();
    }
    GAIA_REQUIRE(marginal.size() <=
                     static_cast<std::size_t>(kMaxElasticInstances),
                 "elastic profile with ", marginal.size(),
                 " instances (limit ", kMaxElasticInstances, ")");
    GAIA_REQUIRE(marginal.front() == 1.0,
                 "elastic profile's first marginal rate must be "
                 "1.0 (the nominal single-instance rate), got ",
                 marginal.front());
    for (double m : marginal) {
        GAIA_REQUIRE(std::isfinite(m) && m > 0.0,
                     "non-positive marginal rate ", m,
                     " in elastic profile");
    }
    GAIA_REQUIRE(min_instances >= 1 &&
                     min_instances <= maxInstances(),
                 "min_instances ", min_instances,
                 " outside [1, ", maxInstances(), "]");
    return Status::ok();
}

std::string
ElasticProfile::key() const
{
    if (!enabled())
        return "off";
    std::ostringstream oss;
    oss << "min=" << min_instances << "|m=";
    for (std::size_t k = 0; k < marginal.size(); ++k) {
        if (k > 0)
            oss << "+";
        oss << marginal[k];
    }
    return oss.str();
}

Result<ElasticProfile>
parseElasticProfile(const std::string &text)
{
    ElasticProfile profile;
    const std::string trimmed(trim(text));
    if (trimmed.empty() || toLower(trimmed) == "off")
        return profile;

    const std::size_t colon = trimmed.find(':');
    GAIA_REQUIRE(colon != std::string::npos,
                 "elastic profile '", text,
                 "' must be kind:key=value,... (kinds: linear, "
                 "diminishing, list; or 'off')");
    const std::string kind = toLower(trimmed.substr(0, colon));

    std::int64_t max_instances = 0;
    double alpha = -1.0;
    std::vector<double> rates;
    for (const std::string &clause :
         split(trimmed.substr(colon + 1), ',')) {
        const std::size_t eq = clause.find('=');
        GAIA_REQUIRE(eq != std::string::npos,
                     "elastic profile clause '", clause,
                     "' must be key=value");
        const std::string clause_key =
            toLower(trim(clause.substr(0, eq)));
        const std::string value(trim(clause.substr(eq + 1)));
        if (clause_key == "max") {
            GAIA_TRY_ASSIGN(max_instances,
                            tryParseInt(value, "elastic max"));
        } else if (clause_key == "min") {
            GAIA_TRY_ASSIGN(const std::int64_t m,
                            tryParseInt(value, "elastic min"));
            GAIA_TRY_ASSIGN(profile.min_instances,
                            tryNarrowInt(m, "elastic min"));
        } else if (clause_key == "alpha") {
            GAIA_TRY_ASSIGN(alpha,
                            tryParseDouble(value, "elastic alpha"));
        } else if (clause_key == "rates") {
            for (const std::string &rate : split(value, '+')) {
                GAIA_TRY_ASSIGN(
                    const double r,
                    tryParseDouble(rate, "elastic rate"));
                rates.push_back(r);
            }
        } else {
            return Status::invalidArgument(
                "unknown elastic profile key '", clause_key,
                "' in '", text,
                "' (known: max, min, alpha, rates)");
        }
    }

    if (kind == "linear" || kind == "diminishing") {
        GAIA_REQUIRE(max_instances >= 1, kind,
                     " elastic profile needs max>=1");
        // validate()'s cap, checked before `max` rates are built.
        GAIA_REQUIRE(max_instances <= kMaxElasticInstances,
                     "elastic profile with ", max_instances,
                     " instances (limit ", kMaxElasticInstances, ")");
    }
    if (kind == "linear") {
        profile.marginal.assign(
            static_cast<std::size_t>(max_instances), 1.0);
    } else if (kind == "diminishing") {
        GAIA_REQUIRE(alpha > 0.0 && alpha <= 1.0,
                     "diminishing elastic profile needs alpha in "
                     "(0, 1], got ", alpha);
        profile.marginal.reserve(
            static_cast<std::size_t>(max_instances));
        double rate = 1.0;
        for (std::int64_t k = 0; k < max_instances; ++k) {
            profile.marginal.push_back(rate);
            rate *= alpha;
        }
    } else if (kind == "list") {
        GAIA_REQUIRE(!rates.empty(),
                     "list elastic profile needs rates=R0+R1+...");
        profile.marginal = std::move(rates);
    } else {
        return Status::invalidArgument(
            "unknown elastic profile kind '", kind, "' in '", text,
            "' (known: linear, diminishing, list, off)");
    }
    GAIA_TRY(profile.validate());
    return profile;
}

} // namespace gaia
