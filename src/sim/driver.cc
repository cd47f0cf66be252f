#include "sim/driver.h"

namespace gaia {

Status
VirtualClockDriver::replay(const JobTrace &trace)
{
    for (const Job &job : trace.jobs())
        GAIA_TRY(engine_.submit(job));
    engine_.drain();
    return Status::ok();
}

} // namespace gaia
