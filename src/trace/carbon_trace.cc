#include "trace/carbon_trace.h"

#include <algorithm>

#include "common/csv.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/strings.h"

namespace gaia {

Status
CarbonTrace::validateValues(const std::string &region,
                            const std::vector<double> &hourly)
{
    GAIA_REQUIRE(!hourly.empty(), "carbon trace '", region,
                 "' has no slots");
    for (std::size_t i = 0; i < hourly.size(); ++i) {
        GAIA_REQUIRE(hourly[i] >= 0.0 &&
                         hourly[i] <= kMaxCarbonIntensity,
                     "carbon trace '", region, "' slot ", i,
                     " has invalid intensity ", hourly[i],
                     " (must be in [0, ", kMaxCarbonIntensity,
                     "] g/kWh)");
    }
    return Status::ok();
}

CarbonTrace::CarbonTrace(std::string region, std::vector<double> hourly)
{
    const Status valid = validateValues(region, hourly);
    GAIA_ASSERT(valid.isOk(), "invalid carbon trace passed to the ",
                "constructor (use CarbonTrace::make for untrusted ",
                "data): ", valid.message());
    tables_ = std::make_shared<const Tables>(std::move(region),
                                             std::move(hourly));
}

CarbonTrace::Tables::Tables(std::string region_name,
                            std::vector<double> hourly)
    : region(std::move(region_name)), values(std::move(hourly))
{
    const std::size_t n = values.size();
    prefix_hi.resize(n + 1);
    prefix_lo.resize(n + 1);
    prefix_hi[0] = 0.0;
    prefix_lo[0] = 0.0;
    CompensatedSum sum;
    for (std::size_t i = 0; i < n; ++i) {
        // The same per-hour product the replaced loop formed; only
        // the summation is upgraded from naive to compensated.
        sum.add(values[i] * static_cast<double>(kSecondsPerHour));
        prefix_hi[i + 1] = sum.hi;
        prefix_lo[i + 1] = sum.lo;
    }

    // Sparse-table RMQ storing slot indices; ties keep the leftmost
    // index so queries reproduce the first-win linear scan exactly.
    rmq.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i)
        rmq[0][i] = static_cast<std::uint32_t>(i);
    for (std::size_t span = 2; span <= n; span *= 2) {
        const std::vector<std::uint32_t> &prev = rmq.back();
        std::vector<std::uint32_t> level(n - span + 1);
        for (std::size_t i = 0; i + span <= n; ++i) {
            const std::uint32_t a = prev[i];
            const std::uint32_t b = prev[i + span / 2];
            level[i] = values[b] < values[a] ? b : a;
        }
        rmq.push_back(std::move(level));
    }
}

double
CarbonTrace::Tables::fullHourSum(std::size_t i, std::size_t j) const
{
    double s, e;
    twoSum(prefix_hi[j], -prefix_hi[i], s, e);
    e += prefix_lo[j] - prefix_lo[i];
    return s + e;
}

std::size_t
CarbonTrace::Tables::argminInRange(std::size_t l, std::size_t r) const
{
    std::size_t level = 0;
    while ((std::size_t{2} << level) <= r - l + 1)
        ++level;
    const std::uint32_t a = rmq[level][l];
    const std::uint32_t b = rmq[level][r + 1 - (std::size_t{1} << level)];
    return values[b] < values[a] ? b : a;
}

Result<CarbonTrace>
CarbonTrace::make(std::string region, std::vector<double> hourly)
{
    GAIA_TRY(validateValues(region, hourly));
    return CarbonTrace(std::move(region), std::move(hourly));
}

double
CarbonTrace::at(Seconds t) const
{
    return atSlot(slotOf(std::max<Seconds>(t, 0)));
}

double
CarbonTrace::integrate(Seconds from, Seconds to) const
{
    GAIA_ASSERT(from <= to, "integrate: from ", from, " > to ", to);
    const Tables &t = tables();
    if (from == to)
        return 0.0;

    // Same piecewise decomposition as the per-hour loop this
    // replaces — identical per-segment products, with the full
    // in-trace hours answered by the prefix table in O(1) — so
    // results agree to the last compensation bit and equal windows
    // stay exactly equal.
    CompensatedSum total;
    Seconds cursor = from;
    if (cursor < 0) {
        // Pre-trace time reads slot 0, whose segment extends to the
        // end of the first hour.
        const Seconds seg_end =
            std::min<Seconds>(kSecondsPerHour, to);
        total.add(t.values.front() *
                  static_cast<double>(seg_end - cursor));
        cursor = seg_end;
    }
    const Seconds end_of_trace =
        static_cast<Seconds>(t.values.size()) * kSecondsPerHour;
    if (cursor < to && cursor < end_of_trace) {
        const Seconds stop = std::min(to, end_of_trace);
        const SlotIndex slot = slotOf(cursor);
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        if (slot_end >= stop) {
            // Window within one slot.
            total.add(t.values[static_cast<std::size_t>(slot)] *
                      static_cast<double>(stop - cursor));
            cursor = stop;
        } else {
            if (cursor != slotStart(slot)) {
                total.add(t.values[static_cast<std::size_t>(slot)] *
                          static_cast<double>(slot_end - cursor));
                cursor = slot_end;
            }
            const auto full_begin =
                static_cast<std::size_t>(slotOf(cursor));
            const auto full_end =
                static_cast<std::size_t>(slotOf(stop));
            if (full_end > full_begin) {
                total.add(t.fullHourSum(full_begin, full_end));
                cursor = static_cast<Seconds>(full_end) *
                         kSecondsPerHour;
            }
            if (cursor < stop) {
                total.add(t.values[full_end] *
                          static_cast<double>(stop - cursor));
                cursor = stop;
            }
        }
    }
    // Past the end of the trace the final hour's value extends
    // indefinitely; keep the replaced loop's hour-by-hour product
    // decomposition (this is the rare safety-net path).
    while (cursor < to) {
        const Seconds slot_end =
            slotStart(slotOf(cursor)) + kSecondsPerHour;
        const Seconds segment_end = std::min(slot_end, to);
        total.add(t.values.back() *
                  static_cast<double>(segment_end - cursor));
        cursor = segment_end;
    }
    return total.round();
}

double
CarbonTrace::gramsFor(Seconds from, Seconds to, double kilowatts) const
{
    GAIA_ASSERT(kilowatts >= 0.0, "negative power ", kilowatts);
    return integrate(from, to) * kilowatts /
           static_cast<double>(kSecondsPerHour);
}

SlotIndex
CarbonTrace::minSlotIn(Seconds from, Seconds to) const
{
    GAIA_ASSERT(from < to, "minSlotIn: empty window [", from, ", ",
                to, ")");
    const Tables &t = tables();
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    const auto n = static_cast<SlotIndex>(t.values.size());
    // Windows at or past the end see only the (clamped) final value,
    // so the first slot wins; this also preserves the replaced
    // scan's convention of returning the unclamped first slot.
    if (first >= n)
        return first;
    const auto l = static_cast<std::size_t>(first);
    const auto r = static_cast<std::size_t>(
        std::min<SlotIndex>(last, n - 1));
    // Clamped slots past n−1 repeat values[n−1] and can never win
    // a strict comparison against slot n−1 itself, so the RMQ over
    // the in-range suffix answers the full window.
    return static_cast<SlotIndex>(t.argminInRange(l, r));
}

double
CarbonTrace::percentileOver(Seconds from, Seconds to, double p) const
{
    GAIA_ASSERT(from < to, "percentileOver: empty window");
    const SlotIndex first = slotOf(std::max<Seconds>(from, 0));
    const SlotIndex last = slotOf(std::max<Seconds>(to - 1, 0));
    std::vector<double> window;
    window.reserve(static_cast<std::size_t>(last - first + 1));
    for (SlotIndex s = first; s <= last; ++s)
        window.push_back(atSlot(s));
    return percentile(std::move(window), p);
}

double
CarbonTrace::meanOver(Seconds from, Seconds to) const
{
    GAIA_ASSERT(from < to, "meanOver: empty window");
    return integrate(from, to) / static_cast<double>(to - from);
}

CarbonTrace
CarbonTrace::resized(std::size_t slots) const
{
    GAIA_ASSERT(slots > 0, "resized to zero slots");
    const Tables &t = tables();
    std::vector<double> out;
    out.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        out.push_back(t.values[i % t.values.size()]);
    return CarbonTrace(t.region, std::move(out));
}

Status
CarbonTrace::toCsv(const std::string &path) const
{
    GAIA_TRY_ASSIGN(CsvWriter writer,
                    CsvWriter::open(path, {"hour", "carbon_intensity"}));
    const std::vector<double> &hourly = values();
    for (std::size_t i = 0; i < hourly.size(); ++i)
        writer.writeRow({std::to_string(i), fmt(hourly[i], 4)});
    return Status::ok();
}

Result<CarbonTrace>
CarbonTrace::fromCsv(const std::string &path, const std::string &region)
{
    GAIA_TRY_ASSIGN(const CsvTable table, tryReadCsv(path));
    GAIA_TRY_ASSIGN(std::vector<double> values,
                    table.tryColumnDoubles("carbon_intensity"));
    // The slot is the row's position, so the hours, when given, must
    // run 0, 1, 2, ... with no gap, repeat or offset.
    const Result<std::size_t> hour = table.tryColumnIndex("hour");
    for (std::size_t k = 0; hour.isOk() && k < table.rowCount(); ++k) {
        const std::string &cell = table.cell(k, hour.value());
        const Result<std::int64_t> parsed = tryParseInt(cell, "hour");
        GAIA_REQUIRE(parsed.isOk() &&
                         parsed.value() == static_cast<std::int64_t>(k),
                     "carbon CSV ", path, ": row ", k, " has hour '",
                     cell, "', expected ", k,
                     " (hours must run 0, 1, 2, ... in order)");
    }
    return make(region, std::move(values));
}

} // namespace gaia
