/**
 * Driver-contract tests: the virtual-clock driver is exactly the
 * batch simulator, and ProtocolListener notifications are complete,
 * ordered, and perturbation-free.
 */

#include "sim/driver.h"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "analysis/harness.h"
#include "common/rng.h"
#include "core/policy_factory.h"
#include "sim/online.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

CarbonTrace
bumpyTrace()
{
    std::vector<double> slots;
    for (int i = 0; i < 24 * 40; ++i)
        slots.push_back(100.0 + 80.0 * ((i / 6) % 2));
    return CarbonTrace("bumpy", std::move(slots));
}

JobTrace
randomTrace(int jobs = 80)
{
    Rng rng(7);
    std::vector<Job> list;
    for (int i = 0; i < jobs; ++i) {
        list.push_back({i, rng.uniformInt(0, 2 * kSecondsPerDay),
                        rng.uniformInt(600, hours(4)),
                        static_cast<int>(rng.uniformInt(1, 3))});
    }
    return JobTrace("random", std::move(list));
}

/** Records every onJobEnd callback. */
class RecordingListener final : public ProtocolListener
{
  public:
    void
    onJobEnd(Seconds at, JobId id) override
    {
        ends.push_back({at, id});
    }

    std::vector<std::pair<Seconds, JobId>> ends;
};

TEST(Protocol, VirtualClockDriverIsTheBatchSimulator)
{
    const JobTrace trace = randomTrace();
    const CarbonTrace carbon = bumpyTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);
    const PolicyPtr policy = makePolicy("Carbon-Time");

    const SimulationResult batch =
        testutil::runSim(trace, *policy, queues, cis);

    // The same run assembled by hand from the engine and driver,
    // including the horizon derivation simulateChecked performs.
    ClusterConfig cluster;
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);
    Result<OnlineScheduler> engine = OnlineScheduler::create(
        *policy, queues, cis, cluster,
        ResourceStrategy::OnDemandOnly, trace.name());
    ASSERT_TRUE(engine.isOk()) << engine.status().toString();
    engine->reserveJobs(trace.jobCount());
    VirtualClockDriver driver(*engine);
    ASSERT_TRUE(driver.replay(trace).isOk());
    const SimulationResult manual = driver.finish();

    EXPECT_EQ(resultFingerprint(batch), resultFingerprint(manual));
}

TEST(Protocol, ListenerGetsOneOrderedEndPerJob)
{
    const JobTrace trace = randomTrace();
    const CarbonTrace carbon = bumpyTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);
    const PolicyPtr policy = makePolicy("Carbon-Time");

    OnlineScheduler engine =
        OnlineScheduler::create(*policy, queues, cis, {},
                                ResourceStrategy::OnDemandOnly)
            .value();
    RecordingListener listener;
    engine.setListener(&listener);
    VirtualClockDriver driver(engine);
    ASSERT_TRUE(driver.replay(trace).isOk());
    const SimulationResult result = driver.finish();

    ASSERT_EQ(listener.ends.size(), trace.jobCount());
    for (std::size_t i = 1; i < listener.ends.size(); ++i) {
        EXPECT_LE(listener.ends[i - 1].first,
                  listener.ends[i].first)
            << "notifications must arrive in time order";
    }

    // Each job is notified exactly once, at its recorded finish.
    std::map<JobId, Seconds> finish_by_id;
    for (const JobOutcome &o : result.outcomes)
        finish_by_id[result.job(o).id] = result.finish(o);
    std::map<JobId, Seconds> notified;
    for (const auto &[at, id] : listener.ends) {
        EXPECT_TRUE(notified.emplace(id, at).second)
            << "job " << id << " notified twice";
    }
    EXPECT_EQ(notified, finish_by_id);
}

TEST(Protocol, ListenerLeavesTheScheduleUntouched)
{
    // Spot + reserved + evictions: the RNG-heavy configuration is
    // where an extra event in the stream would reorder draws.
    const JobTrace trace = randomTrace();
    const CarbonTrace carbon = bumpyTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);
    const PolicyPtr policy = makePolicy("Carbon-Time");
    ClusterConfig cluster;
    cluster.reserved_cores = 4;
    cluster.spot_eviction_rate = 0.10;
    cluster.spot_max_length = hours(2);
    cluster.reservation_horizon =
        defaultReservationHorizon(trace, queues);

    const auto run = [&](ProtocolListener *listener) {
        Result<OnlineScheduler> engine = OnlineScheduler::create(
            *policy, queues, cis, cluster,
            ResourceStrategy::SpotReserved, trace.name());
        GAIA_ASSERT(engine.isOk(), "engine create failed");
        engine->setListener(listener);
        engine->reserveJobs(trace.jobCount());
        VirtualClockDriver driver(*engine);
        GAIA_ASSERT(driver.replay(trace).isOk(), "replay failed");
        return resultFingerprint(driver.finish());
    };

    RecordingListener listener;
    EXPECT_EQ(run(nullptr), run(&listener));
    EXPECT_EQ(listener.ends.size(), trace.jobCount());
}

} // namespace
} // namespace gaia
