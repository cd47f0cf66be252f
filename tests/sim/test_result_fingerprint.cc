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
 * One hand-built result touching every field the fingerprint mixes,
 * in the shapes the engine records: a job evicted once on spot and
 * restarted on reserved cores (a lost slice, then its survivor),
 * admitted half an hour after its submit time; a one-slice on-demand
 * job; and a never-evicted suspend-resume job whose first slice is an
 * on-demand gang of two and whose second runs on spot. The evicted,
 * delayed job gives the result both per-job columns. Fields are
 * assigned by name, so the fixture does not depend on struct layout;
 * each job's start, finish, lost core-seconds, start-up overhead,
 * variable cost and carbon follow from its segments, the default
 * price list, a 15 s start-up overhead, a six-hour carbon trace and
 * 7.5 W per core, and its no-wait carbon from its admitted arrival,
 * the trace and the power model.
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

    // Admitted at 3600, evicted from spot at 5400, and restarted on
    // reserved cores for its whole length.
    testutil::appendOutcome(
        r, Job{17, 1800, 3600, 2}, 1, 1800,
        {{3600, 5400, PurchaseOption::Spot, 1},
         {5400, 9000, PurchaseOption::Reserved, 1}});

    testutil::appendOutcome(
        r, Job{18, 7200, 3600, 1}, 0, 0,
        {{7200, 10800, PurchaseOption::OnDemand, 1}});

    // Suspended between an on-demand gang of two and a spot slice.
    testutil::appendOutcome(
        r, Job{19, 10800, 4500, 1}, 0, 0,
        {{10800, 12600, PurchaseOption::OnDemand, 2},
         {14400, 15300, PurchaseOption::Spot, 1}});
    return r;
}

/** Segment `k` of job `job` in `r`. */
PlacedSegment
seg(const SimulationResult &r, std::size_t job, std::size_t k)
{
    return r.placements(r.outcomes[job])[k];
}

/** Store `s` as segment `k` of job `job` in `r`'s columns. The
 *  fixture holds every segment column but the high start words. */
void
setSeg(SimulationResult &r, std::size_t job, std::size_t k,
       const PlacedSegment &s)
{
    const std::size_t i =
        (job == 0 ? 0 : r.outcomes[job - 1].segment_end) + k;
    ASSERT_LT(s.start(), Seconds{1} << 32);
    r.segment_starts[i] = static_cast<std::uint32_t>(s.start());
    r.segment_durations[i] = static_cast<std::uint32_t>(s.duration());
    r.segment_widths[i] = s.width;
    r.segment_options[i] = s.option;
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

/** Move segment `k` of job `job`'s start by `by` seconds, keeping
 *  its end. */
void
moveStart(SimulationResult &r, std::size_t job, std::size_t k, Seconds by)
{
    const PlacedSegment s = seg(r, job, k);
    setSeg(r, job, k,
           PlacedSegment(s.start() + by, s.end(), s.option, s.width));
}

/** Move segment `k` of job `job`'s end by `by` seconds, keeping its
 *  start. */
void
moveEnd(SimulationResult &r, std::size_t job, std::size_t k, Seconds by)
{
    const PlacedSegment s = seg(r, job, k);
    setSeg(r, job, k,
           PlacedSegment(s.start(), s.end() + by, s.option, s.width));
}

// Computed on this fixture while each segment stored its lost flag
// and each outcome its as-run length, evictions and arrival offset,
// so deriving the first two and moving the others into per-job
// columns provably mixes the same bits; layout changes must never
// move it.
// If a deliberate change to the digest's definition moves it, every
// pinned fingerprint (the golden tests and the benchmark's
// fingerprint table) moves with it.
constexpr std::uint64_t kPinnedDigest = 0x56688d994ce975c0ULL;

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
        [](SimulationResult &r) {
            r.outcomes.pop_back();
            r.job_evictions.pop_back();
            r.arrival_delays.pop_back();
        },
        [](SimulationResult &r) {
            editJob(r, 1, [](Job &j) { j.id += 1; });
        },
        [](SimulationResult &r) {
            editJob(r, 1, [](Job &j) { j.submit += 1; });
        },
        // length() is the job's, stretched for a straggler.
        [](SimulationResult &r) {
            FaultSpec stragglers;
            stragglers.straggler_rate = 1.0;
            r.faults = FaultInjector(stragglers);
        },
        [](SimulationResult &r) {
            editJob(r, 1, [](Job &j) { j.cpus += 1; });
        },
        [](SimulationResult &r) { r.job_evictions[1] += 1; },
        // start(), finish() and lostCoreSeconds() are computed from
        // the segments: move each through one.
        [](SimulationResult &r) { moveStart(r, 1, 0, 1); },
        [](SimulationResult &r) { moveEnd(r, 1, 0, 1); },
        [](SimulationResult &r) { moveEnd(r, 0, 0, 1); },
        // carbonNowaitGrams() is computed from the admitted arrival,
        // the length, the cpus, the carbon trace and the power model.
        [](SimulationResult &r) { r.arrival_delays[1] += 600; },
        [](SimulationResult &r) { r.arrival_delays[0] = 0; },
        // An empty column reads 0 for every job.
        [](SimulationResult &r) { r.arrival_delays.clear(); },
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
        [](SimulationResult &r) { r.outcomes[0].segment_end = 1; },
        [](SimulationResult &r) { moveStart(r, 2, 1, -1); },
        [](SimulationResult &r) { moveEnd(r, 2, 1, 1); },
        [](SimulationResult &r) {
            PlacedSegment s = seg(r, 2, 1);
            s.option = PurchaseOption::OnDemand;
            setSeg(r, 2, 1, s);
        },
        // An evicted job's slices but its last are lost.
        [](SimulationResult &r) { r.job_evictions[0] = 0; },
        [](SimulationResult &r) { r.job_evictions.clear(); },
        [](SimulationResult &r) {
            PlacedSegment s = seg(r, 2, 0);
            s.width = 3;
            setSeg(r, 2, 0, s);
        },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        SimulationResult edited = pinnedResult();
        edits[i](edited);
        EXPECT_NE(resultFingerprint(edited), base) << "edit " << i;
    }
}

} // namespace
} // namespace gaia
