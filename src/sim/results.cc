#include "sim/results.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/stats.h"

namespace gaia {

namespace {

/** FNV-1a over arbitrary typed values (doubles by bit pattern). */
class Digest
{
  public:
    template <typename T>
    void mix(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char byte : bytes) {
            hash_ ^= byte;
            hash_ *= 0x100000001b3ULL;
        }
    }

    void mix(const std::string &value)
    {
        mix<std::uint64_t>(value.size());
        for (char c : value)
            mix<unsigned char>(static_cast<unsigned char>(c));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace

double
SimulationResult::lostCoreSeconds(const JobOutcome &o) const
{
    const int cpus = job(o).cpus;
    double lost = 0.0;
    for (const PlacedSegment &seg : placements(o).first(lostSlices(o)))
        lost += static_cast<double>(seg.duration()) * (cpus * seg.width);
    return lost;
}

double
SimulationResult::overheadCoreSeconds(const JobOutcome &o) const
{
    const int cpus = job(o).cpus;
    double overhead = 0.0;
    for (const PlacedSegment &seg : placements(o))
        overhead +=
            seg.overheadCoreSeconds(cpus * seg.width, startup_overhead);
    return overhead;
}

double
SimulationResult::variableCost(const JobOutcome &o) const
{
    const int cpus = job(o).cpus;
    double cost = 0.0;
    for (const PlacedSegment &seg : placements(o)) {
        if (seg.option == PurchaseOption::Reserved)
            continue; // paid upfront
        const int cores = cpus * seg.width;
        cost += pricing.usageCost(
            seg.option,
            static_cast<double>(seg.duration()) * cores +
                seg.overheadCoreSeconds(cores, startup_overhead));
    }
    return cost;
}

double
SimulationResult::addSliceCarbon(double grams, const PlacedSegment &seg,
                                 int cores) const
{
    const double kilowatts = energy.kilowatts(cores);
    const Seconds start = seg.start();
    grams += carbon.gramsFor(start, seg.end(), kilowatts);
    if (seg.overheadCoreSeconds(cores, startup_overhead) > 0.0) {
        // Each acquisition's spin-up emits without doing work.
        const Seconds from =
            std::max<Seconds>(start - startup_overhead, 0);
        double overhead = carbon.gramsFor(from, start, kilowatts);
        // Clip at t=0: charge the clipped part at the first slot's
        // intensity.
        const Seconds clipped = startup_overhead - (start - from);
        if (clipped > 0) {
            overhead += carbon.at(0) * kilowatts *
                        static_cast<double>(clipped) /
                        static_cast<double>(kSecondsPerHour);
        }
        grams += overhead;
    }
    return grams;
}

double
SimulationResult::carbonGrams(const JobOutcome &o) const
{
    const int cpus = job(o).cpus;
    double grams = 0.0;
    for (const PlacedSegment &seg : placements(o))
        grams = addSliceCarbon(grams, seg, cpus * seg.width);
    return grams;
}

double
SimulationResult::meanWaitingHours() const
{
    if (outcomes.empty())
        return 0.0;
    double total = 0.0;
    for (const JobOutcome &o : outcomes)
        total += toHours(waiting(o));
    return total / static_cast<double>(outcomes.size());
}

double
SimulationResult::meanCompletionHours() const
{
    if (outcomes.empty())
        return 0.0;
    double total = 0.0;
    for (const JobOutcome &o : outcomes)
        total += toHours(completion(o));
    return total / static_cast<double>(outcomes.size());
}

double
SimulationResult::p95WaitingHours() const
{
    if (outcomes.empty())
        return 0.0;
    std::vector<double> waits;
    waits.reserve(outcomes.size());
    for (const JobOutcome &o : outcomes)
        waits.push_back(toHours(waiting(o)));
    return percentile(std::move(waits), 95.0);
}

std::uint64_t
resultFingerprint(const SimulationResult &result)
{
    Digest digest;
    digest.mix(result.policy);
    digest.mix(result.strategy);
    digest.mix(result.region);
    digest.mix(result.workload);
    digest.mix(result.reserved_cores);
    digest.mix(result.horizon);
    digest.mix(result.reserved_upfront);
    digest.mix(result.on_demand_cost);
    digest.mix(result.spot_cost);
    digest.mix(result.carbon_kg);
    digest.mix(result.carbon_nowait_kg);
    digest.mix(result.energy_kwh);
    digest.mix(result.idle_carbon_kg);
    digest.mix(result.idle_energy_kwh);
    digest.mix(result.reserved_core_seconds);
    digest.mix(result.on_demand_core_seconds);
    digest.mix(result.spot_core_seconds);
    digest.mix(result.lost_core_seconds);
    digest.mix(result.overhead_core_seconds);
    digest.mix(result.reserved_utilization);
    digest.mix<std::uint64_t>(result.eviction_count);
    digest.mix<std::uint64_t>(result.outcomes.size());
    for (const JobOutcome &o : result.outcomes) {
        // The submitted job's fields and the derived figures mix
        // where the records once held them, and narrowed fields at
        // their old widths (Seconds, and the 8-bit eviction count as
        // an int), so neither packing the records nor moving the job
        // or its evictions into a column moved a fingerprint.
        const Job &job = result.job(o);
        digest.mix(job.id);
        digest.mix(job.submit);
        digest.mix(result.length(o));
        digest.mix(job.cpus);
        digest.mix(result.start(o));
        digest.mix(result.finish(o));
        digest.mix(result.carbonGrams(o));
        digest.mix(result.carbonNowaitGrams(o));
        digest.mix(result.variableCost(o));
        digest.mix(result.evictions(o));
        digest.mix(result.lostCoreSeconds(o));
        digest.mix(result.overheadCoreSeconds(o));
        const SegmentRange segs = result.placements(o);
        const std::size_t lost = result.lostSlices(o);
        digest.mix<std::uint64_t>(segs.size());
        for (std::size_t k = 0; k < segs.size(); ++k) {
            const PlacedSegment seg = segs[k];
            digest.mix(seg.start());
            digest.mix(seg.end());
            digest.mix(static_cast<int>(seg.option));
            digest.mix(k < lost);
            // Mixed only when above 1 so every fixed-width
            // fingerprint (all pinned golden CSVs) is unchanged by
            // the field's introduction.
            if (seg.width != 1)
                digest.mix<int>(seg.width);
        }
    }
    return digest.value();
}

Status
checkColumns(const SimulationResult &result)
{
    const std::size_t outcomes = result.outcomes.size();
    for (const auto &[name, size] :
         {std::pair{"job_evictions", result.job_evictions.size()},
          std::pair{"arrival_delays", result.arrival_delays.size()}}) {
        if (size != 0 && size != outcomes)
            return Status::failedPrecondition(name, " holds ", size,
                                              " entries for ", outcomes,
                                              " outcomes");
    }
    const std::size_t slices = result.segment_starts.size();
    for (const auto &[name, size] :
         {std::pair{"segment_starts_hi", result.segment_starts_hi.size()},
          std::pair{"segment_widths", result.segment_widths.size()},
          std::pair{"segment_options", result.segment_options.size()},
          std::pair{"segment_durations",
                    result.segment_durations.size()}}) {
        if (size != 0 && size != slices)
            return Status::failedPrecondition(name, " holds ", size,
                                              " entries for ", slices,
                                              " slices");
    }
    const bool one_slice_each = result.segment_durations.empty();
    std::size_t next = 0;
    for (const JobOutcome &o : result.outcomes) {
        const JobId id = result.job(o).id;
        if (o.segment_end <= next || o.segment_end > slices)
            return Status::failedPrecondition(
                "job ", id, ": range ends at ", o.segment_end,
                ", not past its start ", next, " and within the column");
        if (one_slice_each && o.segment_end != next + 1)
            return Status::failedPrecondition(
                "job ", id, ": range of ", o.segment_end - next,
                " slices, but a result without segment_durations runs "
                "each job as one slice");
        next = o.segment_end;
        const SegmentRange segs = result.placements(o);
        for (std::size_t k = 1; k < segs.size(); ++k) {
            if (segs[k].start() < segs[k - 1].end())
                return Status::failedPrecondition(
                    "job ", id,
                    ": slice starts before the previous one ends");
        }
        for (const PlacedSegment seg :
             segs.first(result.lostSlices(o))) {
            if (seg.option != PurchaseOption::Spot)
                return Status::failedPrecondition(
                    "job ", id, ": lost a slice that did not run on spot");
        }
    }
    if (next != slices)
        return Status::failedPrecondition(
            "segments past the last job's range");
    return Status::ok();
}

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return hex;
}

std::vector<double>
allocationSeries(const SimulationResult &result, Seconds step,
                 bool any_option, PurchaseOption option)
{
    GAIA_ASSERT(step > 0, "non-positive allocation step");
    Seconds horizon = result.horizon;
    for (const JobOutcome &o : result.outcomes)
        horizon = std::max(horizon, result.finish(o));
    if (horizon <= 0)
        return {};

    const auto buckets =
        static_cast<std::size_t>((horizon + step - 1) / step);
    std::vector<double> series(buckets, 0.0);
    for (const JobOutcome &o : result.outcomes) {
        const int cpus = result.job(o).cpus;
        for (const PlacedSegment &seg : result.placements(o)) {
            if (!any_option && seg.option != option)
                continue;
            Seconds cursor = seg.start();
            while (cursor < seg.end()) {
                const auto bucket =
                    static_cast<std::size_t>(cursor / step);
                const Seconds bucket_end =
                    static_cast<Seconds>(bucket + 1) * step;
                const Seconds seg_end =
                    std::min(bucket_end, seg.end());
                series[bucket] +=
                    static_cast<double>(seg_end - cursor) * cpus *
                    seg.width;
                cursor = seg_end;
            }
        }
    }
    for (double &v : series)
        v /= static_cast<double>(step);
    return series;
}

} // namespace gaia
