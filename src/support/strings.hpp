// Small string helpers shared by the .bench parser and report writers,
// plus checked numeric parsing for command-line front ends.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace serelin {

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Splits on any character in `delims`, dropping empty pieces.
std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims);

/// ASCII upper-casing (gate-type keywords in .bench are case-insensitive).
std::string to_upper(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// `prefix` followed by the decimal `n`: numbered("g", 12) == "g12". Built
/// by appending, because GCC 12 at -O3 reports false -Wrestrict overlaps
/// in the insert behind `"literal" + std::to_string(n)`.
std::string numbered(std::string_view prefix, std::int64_t n);

// Checked numeric parsing (CLI argument hardening). Unlike std::atoi /
// std::atof these reject empty strings, trailing junk, and out-of-range
// values instead of silently returning 0 — `--threads banana` must be a
// usage error, not zero threads. Leading/trailing whitespace is rejected.

/// Whole-string signed integer in [lo, hi]; nullopt on any defect.
std::optional<std::int64_t> parse_int(std::string_view s,
                                      std::int64_t lo = INT64_MIN,
                                      std::int64_t hi = INT64_MAX);

/// Whole-string unsigned integer; nullopt on any defect.
std::optional<std::uint64_t> parse_uint(std::string_view s);

/// Whole-string finite double; nullopt on any defect.
std::optional<double> parse_double(std::string_view s);

}  // namespace serelin
