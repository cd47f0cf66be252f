/** @file Pins resultFingerprint() to a literal digest. */

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/results.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

/**
 * One hand-built result touching every field the fingerprint mixes:
 * on-demand, reserved and spot segments, a lost spot slice, a width-2
 * segment, a job with four segments and non-zero evictions, and a job
 * admitted half an hour after its submit time. Fields are assigned by
 * name, so the fixture does not depend on struct layout; each job's
 * start, finish, lost core-seconds, start-up overhead, variable cost
 * and carbon follow from its segments, the default price list, a
 * 15 s start-up overhead, a six-hour carbon trace and 7.5 W per
 * core, and its no-wait carbon from its admitted arrival, the trace
 * and the power model.
 */
SimulationResult
pinnedResult()
{
    SimulationResult r;
    r.policy = "Carbon-Time";
    r.strategy = "spot-res";
    r.region = "CISO";
    r.workload = "alibaba";
    r.reserved_cores = 12;
    r.horizon = 7 * kSecondsPerDay;
    r.pricing = PricingModel{};
    r.startup_overhead = 15;
    testutil::setCarbon(r, {210.5, 180.25, 95.0, 130.75, 240.0, 160.5},
                        7.5);
    r.reserved_upfront = 123.25;
    r.on_demand_cost = 4.1;
    r.spot_cost = 0.7;
    r.carbon_kg = 9.875;
    r.carbon_nowait_kg = 12.3;
    r.energy_kwh = 33.0625;
    r.idle_carbon_kg = 0.1;
    r.idle_energy_kwh = 1.25;
    r.reserved_core_seconds = 21600.0;
    r.on_demand_core_seconds = 14400.5;
    r.spot_core_seconds = 5400.0;
    r.lost_core_seconds = 1800.0;
    r.overhead_core_seconds = 240.0;
    r.reserved_utilization = 0.375;
    r.eviction_count = 1;

    // Evicted once on spot, restarted on reserved, then a suspend-
    // resume tail on an on-demand gang of two: four segments.
    JobOutcome evicted;
    evicted.evictions = 1;
    evicted.arrival_delay = 1800;
    testutil::appendOutcome(
        r, Job{17, 3600, 7200, 2}, evicted,
        {{3600, 5400, PurchaseOption::Spot, /*lost=*/true, 1},
         {5400, 9000, PurchaseOption::Reserved, false, 1},
         {10800, 12600, PurchaseOption::OnDemand, false, 2},
         {14400, 15300, PurchaseOption::Spot, false, 1}});

    testutil::appendOutcome(
        r, Job{18, 7200, 3600, 1}, JobOutcome{},
        {{7200, 10800, PurchaseOption::OnDemand, false, 1}});
    return r;
}

/** Segment `k` of job `job` in `r`'s column. */
PlacedSegment &
seg(SimulationResult &r, std::size_t job, std::size_t k)
{
    const std::uint32_t first =
        job == 0 ? 0 : r.outcomes[job - 1].segment_end;
    return r.segments[first + k];
}

/** Edit job `job` of `r`'s column, through a copy of the column
 *  (it is shared and const). */
void
editJob(SimulationResult &r, std::size_t job,
        const std::function<void(Job &)> &edit)
{
    auto jobs = std::make_shared<std::vector<Job>>(*r.jobs);
    edit((*jobs)[job]);
    r.jobs = std::move(jobs);
}

/** Move segment `k` of job `job`'s end by `by` seconds, keeping its
 *  start. */
void
moveEnd(SimulationResult &r, std::size_t job, std::size_t k, Seconds by)
{
    PlacedSegment &s = seg(r, job, k);
    s = PlacedSegment(s.start, s.end() + by, s.option, s.lost, s.width);
}

// Computed while JobOutcome still stored its variable cost, start-up
// overhead, carbon and no-wait carbon (set to the values the
// accessors derive here), so deriving them instead provably mixes the
// same bits; layout changes must never move it. If a deliberate
// change to the digest's definition moves it, every pinned
// fingerprint (the golden tests and the benchmark's fingerprint
// table) moves with it.
constexpr std::uint64_t kPinnedDigest = 0x780ba2910b021855ULL;

TEST(ResultFingerprint, MatchesThePinnedDigest)
{
    EXPECT_EQ(resultFingerprint(pinnedResult()), kPinnedDigest)
        << std::hex << "got 0x" << resultFingerprint(pinnedResult());
}

TEST(ResultFingerprint, EveryFieldMovesTheDigest)
{
    const std::uint64_t base = resultFingerprint(pinnedResult());
    using Edit = std::function<void(SimulationResult &)>;
    const std::vector<Edit> edits = {
        [](SimulationResult &r) { r.policy += "x"; },
        [](SimulationResult &r) { r.strategy += "x"; },
        [](SimulationResult &r) { r.region += "x"; },
        [](SimulationResult &r) { r.workload += "x"; },
        [](SimulationResult &r) { r.reserved_cores += 1; },
        [](SimulationResult &r) { r.horizon += 1; },
        [](SimulationResult &r) { r.reserved_upfront += 1.0; },
        [](SimulationResult &r) { r.on_demand_cost += 1.0; },
        [](SimulationResult &r) { r.spot_cost += 1.0; },
        [](SimulationResult &r) { r.carbon_kg += 1.0; },
        [](SimulationResult &r) { r.carbon_nowait_kg += 1.0; },
        [](SimulationResult &r) { r.energy_kwh += 1.0; },
        [](SimulationResult &r) { r.idle_carbon_kg += 1.0; },
        [](SimulationResult &r) { r.idle_energy_kwh += 1.0; },
        [](SimulationResult &r) { r.reserved_core_seconds += 1.0; },
        [](SimulationResult &r) { r.on_demand_core_seconds += 1.0; },
        [](SimulationResult &r) { r.spot_core_seconds += 1.0; },
        [](SimulationResult &r) { r.lost_core_seconds += 1.0; },
        [](SimulationResult &r) { r.overhead_core_seconds += 1.0; },
        [](SimulationResult &r) { r.reserved_utilization += 0.1; },
        [](SimulationResult &r) { r.eviction_count += 1; },
        [](SimulationResult &r) { r.outcomes.pop_back(); },
        [](SimulationResult &r) {
            editJob(r, 1, [](Job &j) { j.id += 1; });
        },
        [](SimulationResult &r) {
            editJob(r, 1, [](Job &j) { j.submit += 1; });
        },
        [](SimulationResult &r) { r.outcomes[1].length += 1; },
        [](SimulationResult &r) {
            editJob(r, 1, [](Job &j) { j.cpus += 1; });
        },
        [](SimulationResult &r) { r.outcomes[1].evictions += 1; },
        // start(), finish() and lostCoreSeconds() are computed from
        // the segments: move each through one.
        [](SimulationResult &r) { seg(r, 1, 0).start += 1; },
        [](SimulationResult &r) { moveEnd(r, 1, 0, 1); },
        [](SimulationResult &r) { moveEnd(r, 0, 0, 1); },
        // carbonNowaitGrams() is computed from the admitted arrival,
        // the length, the cpus, the carbon trace and the power model.
        [](SimulationResult &r) { r.outcomes[1].arrival_delay += 600; },
        [](SimulationResult &r) { r.outcomes[0].arrival_delay = 0; },
        // carbonGrams() is computed from the segments, the carbon
        // trace, the power model and the start-up overhead.
        [](SimulationResult &r) {
            std::vector<double> hourly = r.carbon.values();
            hourly[2] += 1.0;
            r.carbon = CarbonTrace(r.carbon.region(), std::move(hourly));
        },
        [](SimulationResult &r) { r.energy.watts_per_core += 1.0; },
        // variableCost() and overheadCoreSeconds() are computed from
        // the segments, the price list and the start-up overhead.
        [](SimulationResult &r) {
            r.pricing.on_demand_per_core_hour += 0.01;
        },
        [](SimulationResult &r) { r.pricing.spot_fraction += 0.01; },
        [](SimulationResult &r) { r.startup_overhead += 1; },
        [](SimulationResult &r) { r.outcomes[0].segment_end = 3; },
        [](SimulationResult &r) { seg(r, 0, 3).start -= 1; },
        [](SimulationResult &r) { moveEnd(r, 0, 3, 1); },
        [](SimulationResult &r) {
            seg(r, 0, 3).option = PurchaseOption::OnDemand;
        },
        [](SimulationResult &r) { seg(r, 0, 0).lost = false; },
        [](SimulationResult &r) { seg(r, 0, 2).width = 3; },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        SimulationResult edited = pinnedResult();
        edits[i](edited);
        EXPECT_NE(resultFingerprint(edited), base) << "edit " << i;
    }
}

} // namespace
} // namespace gaia
