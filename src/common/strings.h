/**
 * @file
 * Small string utilities shared by the CSV layer and the reporting
 * code: splitting, trimming, numeric parsing with error reporting,
 * and fixed-precision formatting.
 */

#ifndef GAIA_COMMON_STRINGS_H
#define GAIA_COMMON_STRINGS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace gaia {

/** Split on a delimiter; keeps empty fields. */
std::vector<std::string> split(std::string_view text, char delim);

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view text);

/** Parse a double; ParseError (with `context`) on failure. */
Result<double> tryParseDouble(std::string_view text,
                              std::string_view context);

/** Parse an int64; ParseError (with `context`) on failure. */
Result<std::int64_t> tryParseInt(std::string_view text,
                                 std::string_view context);

/** `value` as an int; InvalidArgument (with `context`) when it lies
 *  outside int's range, where a cast would silently wrap it. */
Result<int> tryNarrowInt(std::int64_t value, std::string_view context);

/** Format with fixed decimal places, e.g. fmt(3.14159, 2) == "3.14". */
std::string fmt(double value, int places = 2);

/** Format as a percentage with sign, e.g. "+12.3%" / "-4.0%". */
std::string fmtPercent(double fraction, int places = 1);

/** True if `text` starts with `prefix`. */
bool startsWith(std::string_view text, std::string_view prefix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/**
 * Expand "--flag=value" arguments into the separate "--flag",
 * "value" form the CLI/bench parsers consume. Only arguments that
 * start with "--" and contain '=' are split (at the first '=');
 * everything else passes through untouched.
 */
std::vector<std::string>
expandEqualsArgs(const std::vector<std::string> &args);

} // namespace gaia

#endif // GAIA_COMMON_STRINGS_H
