#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace gaia {

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            break;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string_view
trim(std::string_view text)
{
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.front())))
        text.remove_prefix(1);
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.back())))
        text.remove_suffix(1);
    return text;
}

Result<double>
tryParseDouble(std::string_view text, std::string_view context)
{
    text = trim(text);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::parseError("cannot parse '", text,
                                  "' as a number (", context, ")");
    }
    return value;
}

Result<std::int64_t>
tryParseInt(std::string_view text, std::string_view context)
{
    text = trim(text);
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::parseError("cannot parse '", text,
                                  "' as an integer (", context, ")");
    }
    return value;
}

Result<int>
tryNarrowInt(std::int64_t value, std::string_view context)
{
    using Limits = std::numeric_limits<int>;
    GAIA_REQUIRE(value >= Limits::min() && value <= Limits::max(),
                 context, ": ", value, " is out of range (an int holds ",
                 Limits::min(), " to ", Limits::max(), ")");
    return static_cast<int>(value);
}

std::string
fmt(double value, int places)
{
    GAIA_ASSERT(places >= 0 && places <= 12, "bad precision ", places);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", places, value);
    return buf;
}

std::string
fmtPercent(double fraction, int places)
{
    const double pct = fraction * 100.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", places, pct);
    return buf;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.substr(0, prefix.size()) == prefix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::vector<std::string>
expandEqualsArgs(const std::vector<std::string> &args)
{
    std::vector<std::string> expanded;
    expanded.reserve(args.size());
    for (const std::string &arg : args) {
        const std::size_t eq = arg.find('=');
        if (startsWith(arg, "--") && eq != std::string::npos) {
            expanded.push_back(arg.substr(0, eq));
            expanded.push_back(arg.substr(eq + 1));
        } else {
            expanded.push_back(arg);
        }
    }
    return expanded;
}

} // namespace gaia
