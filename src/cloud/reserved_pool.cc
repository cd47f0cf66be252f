#include "cloud/reserved_pool.h"

#include "common/logging.h"

namespace gaia {

ReservedPool::ReservedPool(int capacity) : capacity_(capacity)
{
    GAIA_ASSERT(capacity >= 0, "negative reserved capacity ",
                capacity);
}

bool
ReservedPool::canFit(int cores) const
{
    GAIA_ASSERT(cores > 0, "non-positive core request ", cores);
    return cores <= freeCores();
}

void
ReservedPool::acquire(int cores)
{
    GAIA_ASSERT(canFit(cores), "acquire(", cores, ") with only ",
                freeCores(), " free");
    in_use_ += cores;
}

void
ReservedPool::release(int cores)
{
    GAIA_ASSERT(cores > 0 && cores <= in_use_, "release(", cores,
                ") with ", in_use_, " in use");
    in_use_ -= cores;
}

} // namespace gaia
