// Counterexample-corpus persistence and the `.repro` sidecar format of the
// property campaigns (tools/serelin_campaign).
//
// Every persisted counterexample is named by a stable content hash of its
// payload, so re-finding the same input — across CI runs, seeds, or
// machines — lands on the same file name and the corpus never accumulates
// duplicate repros. A sidecar `<name>.repro` carries the reproduction
// recipe: a marker line naming the property that wrote it
// (`serelin_campaign solvers v1`), then `key: value` lines; the solvers
// property additionally stores a replayable config block (see
// docs/ROBUSTNESS.md §6).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace serelin {

/// FNV-1a 64-bit over `text`. Stable across platforms and runs (no seed),
/// which is exactly what corpus dedup needs; not cryptographic.
std::uint64_t content_hash(std::string_view text);

/// Lower-case 16-hex-digit rendering of a hash.
std::string hash_hex(std::uint64_t h);

/// The `key: value` fields of a sidecar, in file order.
using SidecarFields = std::vector<std::pair<std::string, std::string>>;

/// Renders a sidecar: the marker line `serelin_campaign <property> v1`,
/// then one `key: value` line per field. Newlines inside a value become
/// spaces, so every field stays on one line.
std::string render_sidecar(std::string_view property,
                           const SidecarFields& fields);

/// Parses a sidecar written for `property`. nullopt when the marker line
/// names another property or is missing; lines without ": " are skipped.
std::optional<SidecarFields> parse_sidecar(std::string_view text,
                                           std::string_view property);

struct PersistResult {
  std::string path;     ///< full path of the persisted (or existing) file
  bool deduplicated = false;  ///< an identical entry already existed
};

/// Writes `text` to `<dir>/<prefix>-<hash16><ext>` (creating `dir` as
/// needed) and `sidecar` to `<file>.repro`. When the target file already
/// exists with any content (hash collisions on equal names are treated as
/// the same finding), nothing is rewritten and `deduplicated` is true.
/// `ext` includes the dot (".bench"). Never throws: filesystem errors are
/// reported by an empty `path`.
PersistResult persist_counterexample(const std::string& dir,
                                     const std::string& prefix,
                                     const std::string& ext,
                                     const std::string& text,
                                     const std::string& sidecar);

}  // namespace serelin
