/**
 * @file
 * VirtualClockDriver — the batch driver of OnlineScheduler.
 *
 * Replays a pre-materialised JobTrace against the engine in virtual
 * time: submit every job in submit order, sharing the trace's job
 * column rather than copying it, then drain. The engine's
 * event queue does all the clock-keeping, so there is no explicit
 * ticking — this is exactly the feed loop the batch simulator has
 * always run, and the serving daemon's wall-clock-paced consumer is
 * held to byte-identical results against it (see
 * tests/serve/test_driver_parity.cc).
 */

#ifndef GAIA_SIM_DRIVER_H
#define GAIA_SIM_DRIVER_H

#include "common/status.h"
#include "sim/online.h"
#include "workload/job.h"

namespace gaia {

/** Trace-replay driver; see the file comment. */
class VirtualClockDriver
{
  public:
    /** `engine` must outlive the driver. */
    explicit VirtualClockDriver(OnlineScheduler &engine)
        : engine_(engine)
    {
    }

    /**
     * Hand a fresh engine the trace's shared job column (sorted by
     * submit time, so no submit can land in the past), then drain
     * it. Call once per engine: OnlineScheduler::replay() asserts
     * the engine holds no jobs yet.
     */
    Status replay(const JobTrace &trace);

    /** Close the engine's books; call once, after the replay. */
    SimulationResult finish() { return engine_.finalize(); }

  private:
    OnlineScheduler &engine_;
};

} // namespace gaia

#endif // GAIA_SIM_DRIVER_H
