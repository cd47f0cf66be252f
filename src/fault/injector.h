/**
 * @file
 * Deterministic, seed-driven fault injector.
 *
 * Every fault decision is a pure SplitMix64-style hash of
 * (seed, fault kind, hour slot or job id) — the same construction
 * CarbonInfoService uses for forecast noise. There is no mutable
 * RNG stream: whether hour `h` starts an outage window, where a
 * storm strikes inside hour `h`, or whether job `j` straggles is a
 * function of the spec alone, independent of query order, sweep
 * cell scheduling, or thread count. Identical FaultSpecs therefore
 * reproduce bit-identical simulations (resultFingerprint() equal),
 * which the chaos-smoke CI job pins end to end.
 *
 * Window faults (outage, stale, spike) start at hour boundaries:
 * hour `h` *starts* a window of kind K when hash(seed, K, h) falls
 * below the configured rate, and the window then covers
 * [slotStart(h), slotStart(h) + duration). Windows may overlap;
 * coverage, not start, is what queries observe. Storms are instants:
 * a storm hour hosts one revocation instant placed at a hashed
 * offset within the hour, and every spot slice overlapping that
 * instant is revoked together (correlated mass eviction), unlike
 * the independent per-slice cloud/eviction model.
 */

#ifndef GAIA_FAULT_INJECTOR_H
#define GAIA_FAULT_INJECTOR_H

#include <cstdint>

#include "common/time.h"
#include "fault/fault_spec.h"
#include "workload/job.h"

namespace gaia {

/** Pure-function oracle for every fault decision (see file doc). */
class FaultInjector
{
  public:
    /** No faults: the default spec, every rate zero. */
    FaultInjector() = default;

    /**
     * Asserts on a spec validate() would reject — untrusted specs
     * must be validated first (runScenario does).
     */
    explicit FaultInjector(const FaultSpec &spec);

    const FaultSpec &spec() const { return spec_; }

    /** Any carbon-source fault configured (decorator needed). */
    bool cisFaults() const { return spec_.anyCisFault(); }
    /** Storm model active (enables spot re-attempts on restart). */
    bool storms() const { return spec_.storm_rate > 0.0; }

    /** Source outage covering instant `t`. */
    bool outageAt(Seconds t) const;

    /** Stale-forecast window covering instant `t`. */
    bool staleAt(Seconds t) const;

    /**
     * The instant whose data a stale window serves: the start of
     * the earliest stale window covering `t` (the moment the feed
     * froze). Requires staleAt(t).
     */
    Seconds staleFreezeAt(Seconds t) const;

    /** Spike burst covering instant `t`. */
    bool spikeAt(Seconds t) const;

    /** Trace feed missing hourly slot `slot`. */
    bool gapSlot(SlotIndex slot) const;

    /**
     * Earliest storm instant within [from, to), or -1 when no storm
     * strikes the interval. A storm exactly at `to` does not revoke
     * a slice ending there — half-open, like every interval in the
     * simulator.
     */
    Seconds firstStormIn(Seconds from, Seconds to) const;

    /** Job `job_id` suffers a straggler slowdown. Inline, since a
     *  result derives each job's as-run length through it on every
     *  read of its slices, and almost every run has no stragglers. */
    bool straggler(std::uint64_t job_id) const
    {
        return spec_.straggler_rate > 0.0 &&
               roll(Kind::Straggler, job_id, spec_.straggler_rate);
    }
    /** Straggler-inflated runtime for a nominal `length`:
     *  ceil(length x factor), never below `length` and saturating
     *  at max(length, kMaxInputDuration). */
    Seconds stretched(Seconds length) const;

    /** Job `job_id` arrives late. */
    bool delayedStart(std::uint64_t job_id) const;
    /** The configured submission-to-arrival delay. */
    Seconds startDelay() const { return spec_.delay_duration; }

  private:
    /** Fault-kind domain separators for the hash. */
    enum class Kind : std::uint64_t
    {
        Outage = 1,
        Stale = 2,
        Spike = 3,
        Gap = 4,
        Storm = 5,
        StormOffset = 6,
        Straggler = 7,
        Delay = 8,
    };

    std::uint64_t hash(Kind kind, std::uint64_t value) const;
    /** hash(kind, value) falls below `rate` (Bernoulli draw). */
    bool roll(Kind kind, std::uint64_t value, double rate) const;
    /** A window of `kind` covers `t` (scan candidate starts). */
    bool windowCovers(Kind kind, double rate, Seconds duration,
                      Seconds t) const;
    /** Storm instant within hour `slot`; -1 when calm. */
    Seconds stormInstant(SlotIndex slot) const;

    FaultSpec spec_;
};

/**
 * `job`'s length as run under `faults` (nullptr: no faults): its
 * length, or FaultInjector::stretched() of it for a straggler. The
 * one rule for it: the engine plans and restarts jobs at this length,
 * and a result derives each outcome's from it.
 */
inline Seconds
asRunLength(const Job &job, const FaultInjector *faults)
{
    return faults != nullptr && faults->straggler(job.id)
               ? faults->stretched(job.length)
               : job.length;
}

} // namespace gaia

#endif // GAIA_FAULT_INJECTOR_H
