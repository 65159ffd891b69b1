#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace serelin {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t next = s.find_first_of(delims, pos);
    const std::size_t end = (next == std::string_view::npos) ? s.size() : next;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string numbered(std::string_view prefix, std::int64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

std::optional<std::int64_t> parse_int(std::string_view s, std::int64_t lo,
                                      std::int64_t hi) {
  std::int64_t value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  std::uint64_t value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  double value = 0.0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace serelin
