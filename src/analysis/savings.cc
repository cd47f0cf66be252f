#include "analysis/savings.h"

#include <algorithm>

#include "common/logging.h"

namespace gaia {

std::vector<std::pair<double, double>>
savingsCdfByLength(const SimulationResult &result,
                   const std::vector<double> &length_hours_points)
{
    // Derive each job's saving once, as a (length, saving) pair,
    // summing the total in outcome order.
    std::vector<std::pair<double, double>> by_length;
    by_length.reserve(result.outcomes.size());
    double total = 0.0;
    for (const JobOutcome &o : result.outcomes) {
        by_length.emplace_back(toHours(result.length(o)),
                               result.carbonSaved(o));
        total += by_length.back().second;
    }

    // Total saving can be slightly negative for carbon-agnostic
    // runs; report zeros rather than dividing by noise.
    std::vector<std::pair<double, double>> out;
    out.reserve(length_hours_points.size());
    if (total <= 0.0) {
        for (double x : length_hours_points)
            out.emplace_back(x, 0.0);
        return out;
    }

    // Sort the pairs once, then walk the points.
    std::sort(by_length.begin(), by_length.end());

    std::vector<double> sorted_points = length_hours_points;
    GAIA_ASSERT(std::is_sorted(sorted_points.begin(),
                               sorted_points.end()),
                "length points must be ascending");

    std::size_t i = 0;
    double cumulative = 0.0;
    for (double x : sorted_points) {
        while (i < by_length.size() && by_length[i].first <= x)
            cumulative += by_length[i++].second;
        out.emplace_back(x, cumulative / total);
    }
    return out;
}

double
savingsShareByLength(const SimulationResult &result, double lo_hours,
                     double hi_hours)
{
    GAIA_ASSERT(lo_hours <= hi_hours, "inverted length band");
    double total = 0.0;
    double in_band = 0.0;
    for (const JobOutcome &o : result.outcomes) {
        const double saved = result.carbonSaved(o);
        total += saved;
        const double len = toHours(result.length(o));
        if (len >= lo_hours && len < hi_hours)
            in_band += saved;
    }
    return total <= 0.0 ? 0.0 : in_band / total;
}

double
savingsPerWaitingHour(const SimulationResult &result)
{
    const double wait = result.meanWaitingHours();
    if (wait <= 0.0)
        return 0.0;
    return result.carbonSavedKg() / wait;
}

} // namespace gaia
