/** @file Property-based tests on policy plan contracts. */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/cis.h"
#include "core/plan_cache.h"
#include "core/policies.h"
#include "core/policy_factory.h"
#include "fault/faulty_source.h"
#include "tests/common/reference_oracles.h"
#include "trace/region_model.h"

namespace gaia {
namespace {

/** Random-but-reproducible planning scenario. */
struct Scenario
{
    CarbonTrace trace;
    Job job;
    QueueSpec queue;
};

Scenario
makeScenario(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> hourly;
    const std::size_t slots = 24 * 10;
    hourly.reserve(slots);
    double v = rng.uniform(50.0, 500.0);
    for (std::size_t i = 0; i < slots; ++i) {
        v = std::clamp(v + rng.normal(0.0, 60.0), 10.0, 900.0);
        hourly.push_back(v);
    }

    Job job;
    job.id = static_cast<JobId>(seed);
    job.submit = rng.uniformInt(0, 3 * kSecondsPerDay);
    job.length = rng.uniformInt(5 * kSecondsPerMinute,
                                20 * kSecondsPerHour);
    job.cpus = static_cast<int>(rng.uniformInt(1, 8));

    QueueSpec queue{"q", 3 * kSecondsPerDay,
                    rng.uniformInt(0, kSecondsPerDay),
                    rng.uniformInt(kSecondsPerHour,
                                   8 * kSecondsPerHour)};
    return {CarbonTrace("prop", std::move(hourly)), job, queue};
}

using PolicyCase = std::tuple<std::string, int>;

class PlanContract : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(PlanContract, PlansSatisfyTheSchedulingContract)
{
    const auto &[policy_name, seed] = GetParam();
    const PolicyPtr policy = makePolicy(policy_name);
    const Scenario s =
        makeScenario(static_cast<std::uint64_t>(seed) * 977 + 13);
    const CarbonInfoService cis(s.trace);
    PlanContext ctx{s.job.submit, &cis, &s.queue};

    const SchedulePlan plan = policy->plan(s.job, ctx);

    // Work coverage: exactly the job's length, no more, no less.
    EXPECT_EQ(plan.totalRunTime(), s.job.length);

    // Waiting bound: execution begins within W of submission.
    EXPECT_GE(plan.plannedStart(), s.job.submit);
    EXPECT_LE(plan.plannedStart(), s.job.submit + s.queue.max_wait);

    // Suspend-resume deadline: total waiting never exceeds W, i.e.
    // completion <= submit + length + W.
    EXPECT_LE(plan.plannedEnd(),
              s.job.submit + s.job.length + s.queue.max_wait);

    // Segments are sorted and strictly separated.
    for (std::size_t i = 1; i < plan.segmentCount(); ++i) {
        EXPECT_GT(plan.segment(i).start, plan.segment(i - 1).end);
    }

    // Non-suspend policies must emit exactly one segment.
    if (!policy->suspendResume()) {
        EXPECT_EQ(plan.segmentCount(), 1u);
    }
}

TEST_P(PlanContract, PlansAreDeterministic)
{
    const auto &[policy_name, seed] = GetParam();
    const PolicyPtr policy = makePolicy(policy_name);
    const Scenario s =
        makeScenario(static_cast<std::uint64_t>(seed) * 131 + 7);
    const CarbonInfoService cis(s.trace);
    PlanContext ctx{s.job.submit, &cis, &s.queue};
    const SchedulePlan a = policy->plan(s.job, ctx);
    const SchedulePlan b = policy->plan(s.job, ctx);
    EXPECT_EQ(a.toString(), b.toString());
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesManySeeds, PlanContract,
    ::testing::Combine(::testing::Values("NoWait",
                                         "AllWait-Threshold",
                                         "Wait-Awhile", "Ecovisor",
                                         "Lowest-Slot",
                                         "Lowest-Window",
                                         "Carbon-Time"),
                       ::testing::Range(0, 12)),
    [](const ::testing::TestParamInfo<PolicyCase> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_seed" +
               std::to_string(std::get<1>(info.param));
    });

/**
 * Optimality-ordering property on jobs whose length equals the
 * queue average: Wait-Awhile (cheapest slots anywhere in a larger
 * window) <= Lowest-Window (cheapest contiguous window) <= NoWait.
 */
class CarbonOrdering : public ::testing::TestWithParam<int>
{
};

TEST_P(CarbonOrdering, MoreKnowledgeNeverIncreasesPlannedCarbon)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 5);
    const CarbonTrace trace = makeRegionTrace(
        Region::SouthAustralia, 24 * 8, rng.next());
    const CarbonInfoService cis(trace);

    Job job;
    job.id = GetParam();
    job.submit = rng.uniformInt(0, 2 * kSecondsPerDay);
    job.length = rng.uniformInt(kSecondsPerHour,
                                12 * kSecondsPerHour);
    job.cpus = 1;
    QueueSpec queue{"q", 3 * kSecondsPerDay, kSecondsPerDay,
                    job.length}; // J_avg == true length
    PlanContext ctx{job.submit, &cis, &queue};

    const auto carbon_of = [&](const SchedulePlan &plan) {
        double total = 0.0;
        for (const RunSegment &seg : plan.segments())
            total += trace.integrate(seg.start, seg.end);
        return total;
    };

    const double c_nowait = carbon_of(NoWaitPolicy().plan(job, ctx));
    const double c_window =
        carbon_of(LowestWindowPolicy().plan(job, ctx));
    const double c_slot_aware =
        carbon_of(WaitAwhilePolicy().plan(job, ctx));
    const double c_ct = carbon_of(CarbonTimePolicy().plan(job, ctx));

    EXPECT_LE(c_window, c_nowait + 1e-6);
    EXPECT_LE(c_slot_aware, c_window + 1e-6);
    // Carbon-Time trades some carbon for earlier completion but
    // never does worse than starting immediately.
    EXPECT_LE(c_ct, c_nowait + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CarbonOrdering,
                         ::testing::Range(0, 20));

/** Exposes the protected candidate list to the brute forces. */
struct StartCandidates : SchedulingPolicy
{
    using SchedulingPolicy::candidateStarts;
};

/**
 * Lowest-Window's and Carbon-Time's starts, brute-forced over
 * candidateStarts(): the first minimum integral over [s, s + J_avg),
 * and the first maximum CST among positive savings (now scores 0).
 */
std::pair<Seconds, Seconds>
bruteForceStarts(const CarbonInfoSource &cis, Seconds now,
                 const QueueSpec &queue, Seconds granularity)
{
    const Seconds j_avg = queue.effectiveAvgLength();
    const auto integral = [&](Seconds s) {
        return cis.forecastIntegrate(now, s, s + j_avg);
    };
    const double base = integral(now);
    Seconds window_start = now;
    Seconds cst_start = now;
    double best_integral = base;
    double best_cst = 0.0;
    for (const Seconds s : StartCandidates::candidateStarts(
             now, queue.max_wait, granularity)) {
        const double value = integral(s);
        if (value < best_integral) {
            best_integral = value;
            window_start = s;
        }
        const double saving = base - value;
        const double cst =
            saving / static_cast<double>(s - now + j_avg);
        if (saving > 0.0 && cst > best_cst) {
            best_cst = cst;
            cst_start = s;
        }
    }
    return {window_start, cst_start};
}

/**
 * Carbon-Time dominates Lowest-Window on savings-per-wait: its CST
 * at the chosen start is at least Lowest-Window's by definition of
 * the maximization. Both policies' starts also equal a brute force
 * over the same candidates — including a window that holds finer
 * starts but no hourly boundary.
 */
TEST(CarbonTimeProperty, ChosenStartMaximizesCst)
{
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
        const CarbonTrace trace = makeRegionTrace(
            Region::CaliforniaUS, 24 * 5, rng.next());
        const CarbonInfoService cis(trace);
        Job job{trial, rng.uniformInt(0, kSecondsPerDay),
                hours(3), 1};
        QueueSpec queue{"q", days(3), kSecondsPerDay, hours(3)};
        PlanContext ctx{job.submit, &cis, &queue};

        const Seconds chosen =
            CarbonTimePolicy().plan(job, ctx).plannedStart();
        const double base = trace.integrate(
            job.submit, job.submit + queue.avg_length);
        const auto cst = [&](Seconds s) {
            if (s == job.submit)
                return 0.0;
            const double saving =
                base -
                trace.integrate(s, s + queue.avg_length);
            return saving /
                   static_cast<double>(s - job.submit +
                                       queue.avg_length);
        };
        const double chosen_cst = cst(chosen);
        for (Seconds s = nextSlotBoundary(job.submit + 1);
             s <= job.submit + queue.max_wait;
             s += kSecondsPerHour) {
            EXPECT_GE(chosen_cst, cst(s) - 1e-9);
        }
        const auto [window_start, cst_start] =
            bruteForceStarts(cis, job.submit, queue, 0);
        EXPECT_EQ(LowestWindowPolicy().plan(job, ctx).plannedStart(),
                  window_start);
        EXPECT_EQ(chosen, cst_start);
    }

    // Finer starts 900 .. 1800 s but no hourly boundary in
    // (600, 1800]; the cheap second slot makes the last the best.
    const CarbonTrace trace("dip", {500.0, 100.0, 300.0});
    const CarbonInfoService cis(trace);
    const QueueSpec queue{"q", days(1), 1200, hours(1)};
    const Job job{1, 600, hours(1), 1};
    const PlanContext ctx{job.submit, &cis, &queue};
    const auto [window_start, cst_start] =
        bruteForceStarts(cis, job.submit, queue, 300);
    EXPECT_EQ(window_start, 1800);
    EXPECT_EQ(cst_start, 1800);
    EXPECT_EQ(LowestWindowPolicy(300).plan(job, ctx).plannedStart(),
              window_start);
    EXPECT_EQ(CarbonTimePolicy(300).plan(job, ctx).plannedStart(),
              cst_start);
}

/** Expect `plan` to hold exactly `ref`'s segments. */
void
expectSegments(const SchedulePlan &plan,
               const std::vector<RunSegment> &ref,
               const std::string &what)
{
    ASSERT_EQ(plan.segmentCount(), ref.size())
        << what << ": " << plan.toString();
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const RunSegment &seg = plan.segment(i);
        EXPECT_TRUE(seg.start == ref[i].start &&
                    seg.end == ref[i].end &&
                    seg.width == ref[i].width)
            << what << " segment " << i << ": " << plan.toString();
    }
}

/**
 * Wait-Awhile, Ecovisor and Adaptive-SR plan segment for segment as
 * their reference loops do, with and without a PlanCache, over
 * perfect, noisy and faulty forecasts. The traces hold tied runs,
 * the waits span 0 to 24 h, and arrivals fall mid-slot and move
 * forward in time, as one cache requires.
 */
TEST(SuspendResumeReference, PlansMatchTheReferenceLoops)
{
    Rng rng(2718);
    FaultSpec spec;
    spec.stale_rate = 0.1;
    spec.spike_rate = 0.1;
    spec.gap_rate = 0.2;
    const FaultInjector injector(spec);
    const WaitAwhilePolicy wait_awhile;
    const EcovisorPolicy ecovisor;
    const AdaptiveSRPolicy adaptive_sr;
    const SchedulingPolicy *const policies[] = {
        &wait_awhile, &ecovisor, &adaptive_sr};

    for (int t = 0; t < 8; ++t) {
        const CarbonTrace trace = randomTrace(rng, 24 * 6);
        const CarbonInfoService oracle(trace);
        const CarbonInfoService noisy(
            trace, 0.3, static_cast<std::uint64_t>(t));
        const FaultyCarbonSource faulty(oracle, injector);
        const CarbonInfoSource *const sources[] = {&oracle, &noisy,
                                                   &faulty};
        for (const CarbonInfoSource *cis : sources) {
            for (const SchedulingPolicy *policy : policies) {
                PlanCache cache;
                Seconds submit =
                    rng.uniformInt(0, kSecondsPerHour - 1);
                for (int j = 0; j < 12; ++j) {
                    const Job job{j, submit,
                                  rng.uniformInt(60, hours(10)), 1};
                    const Seconds wait =
                        j % 4 == 0 ? 0 : rng.uniformInt(0, hours(24));
                    const QueueSpec queue{"q", days(1), wait, 0};
                    std::vector<RunSegment> ref;
                    if (policy == &wait_awhile)
                        ref = refWaitAwhile(*cis, job, wait);
                    else if (policy == &ecovisor)
                        ref = refEcovisor(*cis, job, wait);
                    else
                        ref = refAdaptiveSR(*cis, job, wait);
                    for (PlanCache *c :
                         {static_cast<PlanCache *>(nullptr), &cache}) {
                        PlanContext ctx{submit, cis, &queue};
                        ctx.cache = c;
                        expectSegments(
                            policy->plan(job, ctx), ref,
                            policy->name() + " trace " +
                                std::to_string(t) + " job " +
                                std::to_string(j) +
                                (c ? " cached" : " direct"));
                    }
                    submit += rng.uniformInt(0, hours(3));
                }
                if (cis->slotInvariantForecasts()) {
                    EXPECT_GT(cache.hits(), 0u) << policy->name();
                }
            }
        }
    }
}

} // namespace
} // namespace gaia
