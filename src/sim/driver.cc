#include "sim/driver.h"

namespace gaia {

Status
VirtualClockDriver::replay(const JobTrace &trace)
{
    GAIA_TRY(engine_.replay(trace));
    engine_.drain();
    return Status::ok();
}

} // namespace gaia
