// Rule passes of the whole-program contract analyzer.
//
// Three tiers, all reporting through one `Reporter` (which owns NOLINT
// suppression *accounting* — every consumed suppression is recorded so the
// unused-nolint pass can flag stale markers):
//
//   * per-file lexical rules — ported from the original serelin_lint
//     scanner: banned tokens, dense-W/D gating, bare artifact writes,
//     unordered range-for, trace-macro purity;
//   * tree-level registry passes — diag codes, exit codes, counters,
//     serve protocol fields, checkpoint section pairing: each cross-checks
//     a source-side registry against its documented/consumed counterpart;
//   * flow-aware passes — lock-order cycle detection over the mutex
//     acquisition graph, and deadline-poll coverage of unbounded loops.
//
// The catalogue (ids, rationale, escape hatches) is docs/STATIC_ANALYSIS.md.
#pragma once

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/registry.hpp"
#include "analysis/source.hpp"

namespace serelin::analysis {

struct Finding {
  std::string file;  ///< root-relative path
  int line = 0;      ///< 1-based
  std::string rule;  ///< bare id, without the "serelin-" prefix
  std::string message;
};

struct RuleInfo {
  const char* id;
  const char* description;
};

/// The full rule catalogue, in display order.
const std::vector<RuleInfo>& rule_catalogue();

bool known_rule(const std::string& id);

/// Collects findings and accounts for NOLINT suppressions. A suppressed
/// finding is dropped but its marker is recorded as *used*; after all
/// passes run, `flag_unused_nolints` reports named markers that suppressed
/// nothing (rule: unused-nolint, itself unsuppressable).
class Reporter {
 public:
  explicit Reporter(const std::vector<SourceFile>& files);

  /// Reports a finding at `rel:line`, honoring a NOLINT on that line.
  void report(const std::string& rel, int line, const std::string& rule,
              std::string message);
  /// Reports without a suppression check (doc-side findings, unused-nolint).
  void report_raw(std::string file, int line, std::string rule,
                  std::string message);
  /// Flags named NOLINT markers that name at least one rule in
  /// `active_rules` yet suppressed nothing this run.
  void flag_unused_nolints(const std::set<std::string>& active_rules);

  std::vector<Finding>& findings() { return findings_; }

 private:
  const std::vector<SourceFile>* files_;
  std::map<std::string, const SourceFile*> by_rel_;
  std::vector<Finding> findings_;
  std::set<std::pair<std::string, int>> used_;
};

// --- per-file lexical rules ---
void rule_banned_tokens(const SourceFile& f, Reporter& rep);
void rule_wd_dense_gated(const SourceFile& f, Reporter& rep);
void rule_bare_artifact_write(const SourceFile& f, Reporter& rep);
void rule_unordered_range_for(const SourceFile& f, Reporter& rep);
void rule_trace_macro_pure(const SourceFile& f, Reporter& rep);

// --- tree-level registry passes ---
void pass_diag_codes(const TreeIndex& tree, const std::filesystem::path& root,
                     Reporter& rep);
void pass_exit_codes(const TreeIndex& tree, const std::filesystem::path& root,
                     Reporter& rep);
void pass_counter_registry(const TreeIndex& tree,
                           const std::filesystem::path& root, Reporter& rep);
void pass_protocol_schema(const TreeIndex& tree,
                          const std::filesystem::path& root, Reporter& rep);
void pass_checkpoint_pairing(const TreeIndex& tree, Reporter& rep);

// --- flow-aware passes ---
void pass_lock_order(const TreeIndex& tree, Reporter& rep);
void pass_deadline_poll(const TreeIndex& tree, Reporter& rep);

}  // namespace serelin::analysis
