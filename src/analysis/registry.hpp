// Cross-TU symbol and registry database for the contract analyzer.
//
// `TreeIndex` aggregates the per-file structural indexes (analysis/index.hpp)
// into whole-program lookups: functions by unqualified name (for the
// lexical call graph the lock-order and deadline passes walk), mutex
// declarations by identity key and by member name. The extraction helpers
// below recover the project's *named registries* — counters, diagnostic
// codes, checkpoint section names, serve protocol fields, documented
// markdown tables — which the registry-pairing passes cross-check against
// each other (docs/STATIC_ANALYSIS.md).
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "analysis/index.hpp"
#include "analysis/source.hpp"

namespace serelin::analysis {

/// A (file, function) reference into TreeIndex::indexes.
struct FunctionRef {
  int file = -1;  ///< index into TreeIndex::indexes
  int fn = -1;    ///< index into FileIndex::functions
};

struct TreeIndex {
  const std::vector<SourceFile>* files = nullptr;
  std::vector<FileIndex> indexes;

  /// Unqualified function name -> every definition in the tree.
  std::map<std::string, std::vector<FunctionRef>> functions_by_name;
  /// Mutex identity key -> declaration (first wins; keys are unique by
  /// construction).
  std::map<std::string, const MutexDecl*> mutex_by_key;
  /// Member name -> every record-member Mutex declaration with that name.
  std::map<std::string, std::vector<const MutexDecl*>> members_by_name;

  const FileIndex* find(const std::string& rel) const;
};

TreeIndex build_tree_index(const std::vector<SourceFile>& files);

/// One named entry of a source-side registry, with its declaration site.
struct RegistryEntry {
  std::string name;
  std::string file;  ///< root-relative path
  int line = 0;
};

/// Enumerators of `enum class <enum_name>` in `rel` (k-prefixed, in
/// declaration order), e.g. DiagCode in diag.hpp or Counter in metrics.hpp.
std::vector<RegistryEntry> extract_enumerators(const TreeIndex& tree,
                                               const std::string& rel,
                                               const std::string& enum_name);

/// `case <enum_name>::kX: return "name";` pairs from `rel` — the
/// enumerator-to-stable-string tables (diag_code_name, counter_name).
/// Returns enumerator -> (name, line).
std::map<std::string, std::pair<std::string, int>> extract_name_table(
    const TreeIndex& tree, const std::string& rel,
    const std::string& enum_name);

/// Checkpoint section names written (`sections.emplace_back("x", ...)` or
/// `with_section("x", ...)`) and consumed (`<image>.find("x")` in a TU that
/// includes support/checkpoint.hpp).
struct SectionUses {
  std::vector<RegistryEntry> emitted;
  std::vector<RegistryEntry> consumed;
};
SectionUses extract_checkpoint_sections(const TreeIndex& tree);

/// Serve protocol field names used by src/serve: parser/dispatcher
/// accessors (get_string/get_number/get_int/get_bool), response builders
/// (.set("x", ...)), check_fields allowlists, and the "op" key itself.
std::vector<RegistryEntry> extract_protocol_fields(const TreeIndex& tree);

/// Markdown table rows whose first cell is a single backticked identifier:
/// `| \`x\` | ... |` -> (x, line). The documented side of the protocol
/// field and counter registries.
std::vector<RegistryEntry> extract_doc_table_idents(
    const std::filesystem::path& doc, const std::string& rel);

/// Whole file as a string; empty when unreadable.
std::string slurp(const std::filesystem::path& p);

/// Keys of every "counters" object in a BENCH_*.json file.
std::vector<RegistryEntry> extract_bench_counter_keys(
    const std::filesystem::path& abs, const std::string& rel);

}  // namespace serelin::analysis
