#include "fault/injector.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gaia {

namespace {

/** Earliest hour whose window of `duration` could cover `t`. */
SlotIndex
firstCandidateSlot(Seconds t, Seconds duration)
{
    const Seconds earliest = t - duration + 1;
    return earliest > 0 ? slotOf(earliest) : 0;
}

} // namespace

FaultInjector::FaultInjector(const FaultSpec &spec) : spec_(spec)
{
    const Status valid = spec_.validate();
    GAIA_ASSERT(valid.isOk(),
                "invalid fault spec passed to the injector "
                "(validate untrusted specs first): ",
                valid.message());
}

std::uint64_t
FaultInjector::hash(Kind kind, std::uint64_t value) const
{
    // SplitMix64 finalizer over a domain-separated key, matching
    // CarbonInfoService::noiseFactor's construction.
    std::uint64_t x = value * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(kind) *
                          0xbf58476d1ce4e5b9ULL +
                      spec_.seed;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

bool
FaultInjector::roll(Kind kind, std::uint64_t value,
                    double rate) const
{
    if (rate <= 0.0)
        return false;
    if (rate >= 1.0)
        return true;
    // Map the hash to [0, 1); the comparison is exact and
    // deterministic — no RNG stream to advance.
    const double u = static_cast<double>(hash(kind, value) >> 11) *
                     0x1.0p-53;
    return u < rate;
}

bool
FaultInjector::windowCovers(Kind kind, double rate,
                            Seconds duration, Seconds t) const
{
    if (rate <= 0.0 || t < 0)
        return false;
    const SlotIndex last = slotOf(t);
    for (SlotIndex s = firstCandidateSlot(t, duration); s <= last;
         ++s) {
        if (roll(kind, static_cast<std::uint64_t>(s), rate) &&
            slotStart(s) + duration > t)
            return true;
    }
    return false;
}

bool
FaultInjector::outageAt(Seconds t) const
{
    return windowCovers(Kind::Outage, spec_.outage_rate,
                        spec_.outage_duration, t);
}

bool
FaultInjector::staleAt(Seconds t) const
{
    return windowCovers(Kind::Stale, spec_.stale_rate,
                        spec_.stale_duration, t);
}

Seconds
FaultInjector::staleFreezeAt(Seconds t) const
{
    GAIA_ASSERT(staleAt(t), "staleFreezeAt() outside a stale "
                "window");
    const SlotIndex last = slotOf(t);
    for (SlotIndex s = firstCandidateSlot(t, spec_.stale_duration);
         s <= last; ++s) {
        if (roll(Kind::Stale, static_cast<std::uint64_t>(s),
                 spec_.stale_rate) &&
            slotStart(s) + spec_.stale_duration > t)
            return slotStart(s);
    }
    panic("staleFreezeAt: no covering window despite staleAt");
}

bool
FaultInjector::spikeAt(Seconds t) const
{
    return windowCovers(Kind::Spike, spec_.spike_rate,
                        spec_.spike_duration, t);
}

bool
FaultInjector::gapSlot(SlotIndex slot) const
{
    return slot >= 0 &&
           roll(Kind::Gap, static_cast<std::uint64_t>(slot),
                spec_.gap_rate);
}

Seconds
FaultInjector::stormInstant(SlotIndex slot) const
{
    if (!roll(Kind::Storm, static_cast<std::uint64_t>(slot),
              spec_.storm_rate))
        return -1;
    const Seconds offset = static_cast<Seconds>(
        hash(Kind::StormOffset, static_cast<std::uint64_t>(slot)) %
        static_cast<std::uint64_t>(kSecondsPerHour));
    return slotStart(slot) + offset;
}

Seconds
FaultInjector::firstStormIn(Seconds from, Seconds to) const
{
    if (spec_.storm_rate <= 0.0 || to <= from)
        return -1;
    const Seconds start = std::max<Seconds>(from, 0);
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    for (SlotIndex s = slotOf(start); s <= last; ++s) {
        const Seconds instant = stormInstant(s);
        if (instant >= from && instant < to)
            return instant;
    }
    return -1;
}

Seconds
FaultInjector::stretched(Seconds length) const
{
    const double scaled = std::ceil(static_cast<double>(length) *
                                    spec_.straggler_factor);
    // Saturate at the century validateJob allows an input job, so a
    // huge factor neither overflows the cast nor stretches a job
    // past what the carbon trace integrates cheaply.
    const Seconds cap = std::max(length, kMaxInputDuration);
    if (scaled >= static_cast<double>(cap))
        return cap;
    return std::max<Seconds>(static_cast<Seconds>(scaled), length);
}

bool
FaultInjector::delayedStart(std::uint64_t job_id) const
{
    return roll(Kind::Delay, job_id, spec_.delay_rate);
}

} // namespace gaia
