// serelin_lint — the project's whole-program contract analyzer.
//
// This binary is a thin driver: the analysis substrate (source loading,
// per-TU structural indexes, cross-TU registries) and every rule pass live
// in src/analysis/ (docs/STATIC_ANALYSIS.md is the catalogue). The driver
// owns only the CLI and output formatting.
//
// Scans `src/` and `tools/` below --root (default: the current directory).
// Cross-TU passes always index the whole tree — `--only FILE` filters
// which findings are *reported*, not what is analyzed, so changed-files
// mode in CI stays sound.
//
// Exit status: 0 clean, 1 findings, 64 usage error, 70 internal error.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/passes.hpp"
#include "analysis/registry.hpp"
#include "analysis/source.hpp"

namespace fs = std::filesystem;

using namespace serelin::analysis;

namespace {

int usage(std::ostream& out, int rc) {
  out << "usage: serelin_lint [--root DIR] [--rule ID]... [--only FILE]..."
         " [--list-rules]\n"
         "  --root DIR    repository root to scan (default: .)\n"
         "  --rule ID     report only the listed rule(s)\n"
         "  --only FILE   report only findings in FILE"
         " (root-relative; repeatable)\n"
         "  --list-rules  print the rule catalogue and exit\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::set<std::string> only_rules;
  std::set<std::string> only_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_catalogue())
        std::cout << "serelin-" << r.id << "\n    " << r.description
                  << "\n";
      return 0;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--rule" && i + 1 < argc) {
      std::string id = argv[++i];
      if (id.rfind("serelin-", 0) == 0) id = id.substr(8);
      if (!known_rule(id)) {
        std::cerr << "serelin_lint: unknown rule '" << id << "'\n";
        return 64;
      }
      only_rules.insert(id);
    } else if (arg == "--only" && i + 1 < argc) {
      only_files.insert(fs::path(argv[++i]).generic_string());
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else {
      std::cerr << "serelin_lint: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 64);
    }
  }

  try {
    if (!fs::exists(root / "src") && !fs::exists(root / "tools")) {
      std::cerr << "serelin_lint: no src/ or tools/ under '" << root.string()
                << "' (wrong --root?)\n";
      return 64;
    }

    std::vector<SourceFile> files = collect_tree(root);
    const TreeIndex tree = build_tree_index(files);
    Reporter rep(files);

    // Every pass always runs over the whole tree: --rule and --only filter
    // what is *reported*, and the unused-nolint accounting needs complete
    // suppression coverage to judge markers.
    for (const SourceFile& f : files) {
      rule_banned_tokens(f, rep);
      rule_unordered_range_for(f, rep);
      rule_wd_dense_gated(f, rep);
      rule_bare_artifact_write(f, rep);
      rule_trace_macro_pure(f, rep);
    }
    pass_diag_codes(tree, root, rep);
    pass_exit_codes(tree, root, rep);
    pass_counter_registry(tree, root, rep);
    pass_protocol_schema(tree, root, rep);
    pass_checkpoint_pairing(tree, rep);
    pass_lock_order(tree, rep);
    pass_deadline_poll(tree, rep);

    std::set<std::string> ran;
    for (const RuleInfo& r : rule_catalogue()) ran.insert(r.id);
    rep.flag_unused_nolints(ran);

    std::vector<Finding>& findings = rep.findings();
    if (!only_rules.empty())
      findings.erase(std::remove_if(findings.begin(), findings.end(),
                                    [&](const Finding& f) {
                                      return only_rules.count(f.rule) == 0;
                                    }),
                     findings.end());
    if (!only_files.empty())
      findings.erase(std::remove_if(findings.begin(), findings.end(),
                                    [&](const Finding& f) {
                                      return only_files.count(f.file) == 0;
                                    }),
                     findings.end());

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    for (const Finding& f : findings)
      std::cout << f.file << ":" << f.line << ": serelin-" << f.rule << ": "
                << f.message << "\n";
    std::cerr << "serelin_lint: " << findings.size() << " finding(s) in "
              << files.size() << " file(s)\n";
    return findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "serelin_lint: internal error: " << e.what() << "\n";
    return 70;
  }
}
