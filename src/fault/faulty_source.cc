#include "fault/faulty_source.h"

#include <algorithm>

namespace gaia {

FaultyCarbonSource::FaultyCarbonSource(const CarbonInfoSource &inner,
                                       const FaultInjector &faults)
    : inner_(inner), faults_(faults)
{
}

double
FaultyCarbonSource::rawAtSlot(Seconds now, SlotIndex slot) const
{
    SlotIndex s = slot;
    // Last observation carried forward across gap slots; a gap at
    // the very start of the trace falls through to the inner value
    // (there is nothing earlier to carry).
    while (s > 0 && faults_.gapSlot(s))
        --s;
    return inner_.forecastAtSlot(now, s);
}

double
FaultyCarbonSource::forecastAtSlot(Seconds now, SlotIndex slot) const
{
    if (faults_.staleAt(now)) {
        // Feed frozen at the stale window's start: every slot at or
        // after the freeze answers with the freeze slot's value, as
        // a persistence forecast from the freeze instant would.
        const Seconds freeze = faults_.staleFreezeAt(now);
        const SlotIndex freeze_slot = slotOf(freeze);
        if (slot >= freeze_slot)
            return rawAtSlot(freeze, freeze_slot);
        return rawAtSlot(freeze, slot);
    }
    double value = rawAtSlot(now, slot);
    if (slot > slotOf(std::max<Seconds>(now, 0)) &&
        faults_.spikeAt(now)) {
        // Corrupted forecast generation: future slots only; the
        // current slot is a measurement.
        value *= faults_.spec().spike_factor;
    }
    return value;
}

double
FaultyCarbonSource::intensityAt(Seconds t) const
{
    if (faults_.staleAt(t)) {
        const Seconds freeze = faults_.staleFreezeAt(t);
        return rawAtSlot(freeze, slotOf(freeze));
    }
    return rawAtSlot(t, slotOf(std::max<Seconds>(t, 0)));
}

} // namespace gaia
