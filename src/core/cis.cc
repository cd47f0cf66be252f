#include "core/cis.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"

namespace gaia {

double
CarbonInfoSource::forecastIntegrate(Seconds now, Seconds from,
                                    Seconds to) const
{
    GAIA_ASSERT(from <= to, "forecastIntegrate: from > to");
    double total = 0.0;
    Seconds cursor = from;
    while (cursor < to) {
        const SlotIndex slot = slotOf(std::max<Seconds>(cursor, 0));
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        const Seconds seg_end = std::min(slot_end, to);
        total += forecastAtSlot(now, slot) *
                 static_cast<double>(seg_end - cursor);
        cursor = seg_end;
    }
    return total;
}

SlotIndex
CarbonInfoSource::forecastMinSlot(Seconds now, Seconds from,
                                  Seconds to) const
{
    GAIA_ASSERT(from < to, "forecastMinSlot: empty window");
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    SlotIndex best = first;
    double best_value = forecastAtSlot(now, first);
    for (SlotIndex s = first + 1; s <= last; ++s) {
        const double v = forecastAtSlot(now, s);
        if (v < best_value) {
            best_value = v;
            best = s;
        }
    }
    return best;
}

double
CarbonInfoSource::forecastPercentile(Seconds now, Seconds from,
                                     Seconds to, double p) const
{
    GAIA_ASSERT(from < to, "forecastPercentile: empty window");
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    std::vector<double> window;
    window.reserve(static_cast<std::size_t>(last - first + 1));
    for (SlotIndex s = first; s <= last; ++s)
        window.push_back(forecastAtSlot(now, s));
    return percentile(std::move(window), p);
}

CarbonInfoService::CarbonInfoService(const CarbonTrace &trace,
                                     double forecast_noise,
                                     std::uint64_t seed)
    : trace_(trace), noise_(forecast_noise), seed_(seed)
{
    if (noise_ < 0.0)
        fatal("negative forecast noise ", noise_);
}

CarbonInfoService::CarbonInfoService(
    const CarbonTrace &trace, const CarbonForecaster &forecaster)
    : trace_(trace), noise_(0.0), seed_(0), forecaster_(&forecaster)
{
}

double
CarbonInfoService::intensityAt(Seconds t) const
{
    return trace_.at(t);
}

double
CarbonInfoService::noiseFactor(SlotIndex slot) const
{
    if (noise_ <= 0.0)
        return 1.0;
    // SplitMix64-style hash of (slot, seed) -> uniform -> a bounded
    // multiplicative error. A triangular-ish shape from the average
    // of two uniforms keeps the factor strictly positive.
    std::uint64_t x =
        static_cast<std::uint64_t>(slot) * 0x9e3779b97f4a7c15ULL +
        seed_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    const double u1 =
        static_cast<double>(x >> 40) / static_cast<double>(1 << 24);
    const double u2 =
        static_cast<double>(x & 0xffffff) /
        static_cast<double>(1 << 24);
    const double centered = (u1 + u2) - 1.0; // in (-1, 1), mean 0
    return std::max(0.05, 1.0 + noise_ * centered * 1.73);
}

double
CarbonInfoService::forecastAtSlot(Seconds now, SlotIndex slot) const
{
    const double truth = trace_.atSlot(slot);
    if (slot <= slotOf(std::max<Seconds>(now, 0)))
        return truth; // past and present are measured, not forecast
    if (forecaster_ != nullptr)
        return forecaster_->predict(trace_, now, slot);
    return truth * noiseFactor(slot);
}

double
CarbonInfoService::forecastIntegrate(Seconds now, Seconds from,
                                     Seconds to) const
{
    return oracle() ? trace_.integrate(from, to)
                    : CarbonInfoSource::forecastIntegrate(now, from, to);
}

SlotIndex
CarbonInfoService::forecastMinSlot(Seconds now, Seconds from,
                                   Seconds to) const
{
    // The trace's O(1) sparse-table argmin breaks ties toward the
    // first slot, as the walk does.
    return oracle() ? trace_.minSlotIn(from, to)
                    : CarbonInfoSource::forecastMinSlot(now, from, to);
}

double
CarbonInfoService::forecastPercentile(Seconds now, Seconds from,
                                      Seconds to, double p) const
{
    return oracle()
               ? trace_.percentileOver(from, to, p)
               : CarbonInfoSource::forecastPercentile(now, from, to, p);
}

} // namespace gaia
