#include "support/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "support/atomic_io.hpp"

namespace serelin {

namespace fs = std::filesystem;

namespace {

std::string sidecar_marker(std::string_view property) {
  return "serelin_campaign " + std::string(property) + " v1";
}

}  // namespace

std::string render_sidecar(std::string_view property,
                           const SidecarFields& fields) {
  std::string out = sidecar_marker(property) + "\n";
  for (const auto& [key, value] : fields) {
    std::string line = value;
    std::replace(line.begin(), line.end(), '\n', ' ');
    out += key + ": " + line + "\n";
  }
  return out;
}

std::optional<SidecarFields> parse_sidecar(std::string_view text,
                                           std::string_view property) {
  std::istringstream is{std::string(text)};
  std::string line;
  if (!std::getline(is, line) || line != sidecar_marker(property))
    return std::nullopt;
  SidecarFields fields;
  while (std::getline(is, line)) {
    const std::size_t colon = line.find(": ");
    if (colon != std::string::npos)
      fields.emplace_back(line.substr(0, colon), line.substr(colon + 2));
  }
  return fields;
}

std::uint64_t content_hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::string hash_hex(std::uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[h & 0xf];
    h >>= 4;
  }
  return s;
}

PersistResult persist_counterexample(const std::string& dir,
                                     const std::string& prefix,
                                     const std::string& ext,
                                     const std::string& text,
                                     const std::string& sidecar) {
  PersistResult out;
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path file =
      fs::path(dir) / (prefix + "-" + hash_hex(content_hash(text)) + ext);
  if (fs::exists(file, ec)) {
    out.path = file.string();
    out.deduplicated = true;
    return out;
  }
  // Durable replace (docs/ROBUSTNESS.md §11): a crash mid-persist must not
  // leave a torn counterexample that later replays as a different circuit.
  if (!try_atomic_write_file(file.string(), text))
    return out;  // path stays empty: persistence failed
  try_atomic_write_file(file.string() + ".repro", sidecar);
  out.path = file.string();
  return out;
}

}  // namespace serelin
