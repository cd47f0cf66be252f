#include "core/plan_cache.h"

#include <utility>

#include "common/obs.h"

namespace gaia {

namespace {

// Process-wide aggregates across every PlanCache instance (one per
// simulated cell); registered at load so they always appear in
// metrics output.
obs::Counter &c_hits = obs::counter("plan_cache.hits");
obs::Counter &c_misses = obs::counter("plan_cache.misses");
obs::Histogram &h_fill =
    obs::histogram("plan_cache.fill_seconds");

} // namespace

PlanCache::PlanCache(PlanCache &&other)
    : slot_tables_(std::move(other.slot_tables_)),
      hits_(std::exchange(other.hits_, 0)),
      misses_(std::exchange(other.misses_, 0)),
      fill_seconds_(std::exchange(other.fill_seconds_, 0.0))
{
}

PlanCache::~PlanCache()
{
    if (hits_ > 0)
        c_hits.add(hits_);
    if (misses_ > 0)
        c_misses.add(misses_);
    if (fill_seconds_ > 0.0)
        h_fill.observe(fill_seconds_);
}

} // namespace gaia
