#include "analysis/passes.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>

namespace serelin::analysis {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Catalogue

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"no-unseeded-random",
       "std::rand/srand/std::random_device are banned outside "
       "src/support/rng.* — all randomness must be seeded through "
       "serelin::Rng (determinism contract, docs/PARALLELISM.md)"},
      {"no-wallclock",
       "system_clock/time(nullptr)/gettimeofday are banned outside "
       "src/support/stopwatch.hpp — wall-clock reads make runs "
       "irreproducible"},
      {"no-unordered-range-for",
       "range-for over std::unordered_map/set in src/{core,sim,ser,check} — "
       "iteration order is nondeterministic, which breaks bit-identical "
       "reductions"},
      {"wd-dense-gated",
       "direct WdMatrices use is confined to src/check/* — the Θ(|V|²) "
       "W/D matrices are the exact reference for small circuits; "
       "production code finds the minimum period with MinPeriodRetimer"},
      {"no-bare-artifact-write",
       "std::ofstream and fopen-for-write are banned outside "
       "src/support/atomic_io.* — artifacts must go through "
       "atomic_write_file or JournalWriter so a crash can never leave a "
       "torn or half-written file (docs/ROBUSTNESS.md §11)"},
      {"diag-code-name",
       "every DiagCode enumerator in src/support/diag.hpp must have a "
       "diag_code_name case in src/support/diag.cpp"},
      {"diag-code-documented",
       "every diag_code_name string must appear in docs/ROBUSTNESS.md "
       "(the code taxonomy is a documented contract)"},
      {"exit-code-registry",
       "exit codes used by tools/serelin_cli.cpp and the registry table in "
       "docs/ROBUSTNESS.md must match exactly"},
      {"trace-macro-pure",
       "SERELIN_SPAN/SERELIN_COUNT arguments must be side-effect free: the "
       "macros compile out under SERELIN_TRACE=OFF, so ++/--/assignments "
       "in arguments would change behavior between builds"},
      {"lock-order-cycle",
       "the static mutex-acquisition graph (MutexLock nesting, "
       "SERELIN_REQUIRES preconditions, and calls made while holding a "
       "lock) must be acyclic — a cycle is a latent deadlock "
       "(docs/PARALLELISM.md)"},
      {"deadline-poll-coverage",
       "every unbounded loop in src/{core,timing,ser} and the serve "
       "dispatcher that performs indexed work must reach a "
       "Deadline/CancelToken poll, directly or through its callees — "
       "otherwise cancellation and deadline slicing cannot interrupt it"},
      {"checkpoint-section-pairing",
       "every checkpoint section name written (sections.emplace_back / "
       "with_section) must have a consumer (<image>.find) on some restore "
       "path, and every consumed section must have a writer — an unpaired "
       "name is dead weight or a restore that can never fire "
       "(docs/ROBUSTNESS.md §11)"},
      {"counter-registry",
       "Counter enumerators, counter_name() strings, the "
       "docs/OBSERVABILITY.md counter registry table, and BENCH_*.json "
       "counter keys must agree — the counters are a documented, "
       "machine-checked contract"},
      {"protocol-schema",
       "every protocol field src/serve reads or writes must appear in the "
       "docs/SERVING.md field registry tables, and every documented field "
       "must be used — the wire schema is a documented contract"},
      {"unused-nolint",
       "a NOLINT(serelin-<rule>) marker that suppresses nothing is stale "
       "and must be removed — dead suppressions hide real regressions "
       "(this rule cannot itself be suppressed)"},
  };
  return kRules;
}

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : rule_catalogue())
    if (id == r.id) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Reporter

Reporter::Reporter(const std::vector<SourceFile>& files) : files_(&files) {
  for (const SourceFile& f : files) by_rel_.emplace(f.rel, &f);
}

void Reporter::report(const std::string& rel, int line,
                      const std::string& rule, std::string message) {
  const auto it = by_rel_.find(rel);
  if (it != by_rel_.end()) {
    const SourceFile& f = *it->second;
    if (line >= 1 && line <= static_cast<int>(f.raw.size()) &&
        nolint_suppressed(f.raw[static_cast<std::size_t>(line - 1)], rule)) {
      used_.emplace(rel, line);
      return;
    }
  }
  findings_.push_back({rel, line, rule, std::move(message)});
}

void Reporter::report_raw(std::string file, int line, std::string rule,
                          std::string message) {
  findings_.push_back(
      {std::move(file), line, std::move(rule), std::move(message)});
}

void Reporter::flag_unused_nolints(const std::set<std::string>& active_rules) {
  if (active_rules.count("unused-nolint") == 0) return;
  for (const SourceFile& f : *files_) {
    for (std::size_t li = 0; li < f.raw.size(); ++li) {
      const NolintMarker m = parse_nolint(f.raw[li]);
      if (!m.present || m.bare) continue;
      // Only markers that name at least one rule this run actually
      // exercised can be judged stale.
      bool judgeable = false;
      for (const std::string& r : m.rules)
        if (known_rule(r) && r != "unused-nolint" && active_rules.count(r))
          judgeable = true;
      if (!judgeable) continue;
      if (used_.count({f.rel, static_cast<int>(li + 1)})) continue;
      std::string listed;
      for (const std::string& r : m.rules) {
        if (!listed.empty()) listed += ", ";
        listed += "serelin-" + r;
      }
      report_raw(f.rel, static_cast<int>(li + 1), "unused-nolint",
                 "NOLINT(" + listed +
                     ") suppresses nothing on this line; remove the stale "
                     "marker");
    }
  }
}

// ---------------------------------------------------------------------------
// Per-file lexical rules (ported from the original serelin_lint scanner)

namespace {

bool random_exempt(const std::string& rel) {
  return rel == "src/support/rng.hpp" || rel == "src/support/rng.cpp";
}

bool wallclock_exempt(const std::string& rel) {
  return rel == "src/support/stopwatch.hpp" || random_exempt(rel);
}

}  // namespace

void rule_banned_tokens(const SourceFile& f, Reporter& rep) {
  static const struct {
    const char* token;
    bool call_only;  // require a '(' after the token
  } kRandom[] = {
      {"rand", true},          // std::rand() / ::rand()
      {"srand", false},        //
      {"random_device", false} // std::random_device
  };
  static const char* const kWallclock[] = {
      "system_clock", "high_resolution_clock", "gettimeofday", "mktime"};

  if (!random_exempt(f.rel)) {
    for (std::size_t li = 0; li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      for (const auto& t : kRandom) {
        std::size_t pos = find_token(line, t.token);
        if (pos == std::string::npos) continue;
        if (t.call_only) {
          const std::size_t after =
              skip_spaces(line, pos + std::string(t.token).size());
          if (after >= line.size() || line[after] != '(') continue;
        }
        rep.report(f.rel, static_cast<int>(li + 1), "no-unseeded-random",
                   std::string("'") + t.token +
                       "' bypasses serelin::Rng; draw from an explicit "
                       "stream_rng(seed, index) instead");
      }
    }
  }
  if (!wallclock_exempt(f.rel)) {
    for (std::size_t li = 0; li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      for (const char* token : kWallclock) {
        if (find_token(line, token) == std::string::npos) continue;
        rep.report(f.rel, static_cast<int>(li + 1), "no-wallclock",
                   std::string("'") + token +
                       "' reads the wall clock; use Stopwatch "
                       "(src/support/stopwatch.hpp) or a Deadline");
      }
      // time(nullptr) / time(NULL) / time(0): the classic seed source.
      std::size_t pos = find_token(line, "time");
      while (pos != std::string::npos) {
        std::size_t i = skip_spaces(line, pos + 4);
        if (i < line.size() && line[i] == '(') {
          i = skip_spaces(line, i + 1);
          if (line.compare(i, 7, "nullptr") == 0 ||
              line.compare(i, 4, "NULL") == 0 ||
              (i < line.size() && line[i] == '0')) {
            rep.report(f.rel, static_cast<int>(li + 1), "no-wallclock",
                       "'time(...)' reads the wall clock; seeds must be "
                       "explicit (determinism contract)");
          }
        }
        pos = find_token(line, "time", pos + 1);
      }
    }
  }
}

namespace {

/// The matrices live in src/check as the exact reference, and only the
/// checking code (which exists to compare engines) may name WdMatrices;
/// nothing else in src/ or tools/ may.
bool wd_dense_exempt(const std::string& rel) {
  return rel.rfind("src/check/", 0) == 0;
}

}  // namespace

void rule_wd_dense_gated(const SourceFile& f, Reporter& rep) {
  if (wd_dense_exempt(f.rel)) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    if (find_token(f.code[li], "WdMatrices") == std::string::npos) continue;
    rep.report(f.rel, static_cast<int>(li + 1), "wd-dense-gated",
               "'WdMatrices' is the Θ(|V|²) exact reference and belongs "
               "in src/check; find the minimum period with "
               "MinPeriodRetimer");
  }
}

namespace {

/// Only the durable-write substrate itself may open files for writing;
/// everything else goes through atomic_write_file / JournalWriter.
bool artifact_write_exempt(const std::string& rel) {
  return rel == "src/support/atomic_io.cpp" ||
         rel == "src/support/atomic_io.hpp";
}

}  // namespace

void rule_bare_artifact_write(const SourceFile& f, Reporter& rep) {
  if (artifact_write_exempt(f.rel)) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    bool hit = find_token(line, "ofstream") != std::string::npos;
    if (!hit && find_token(line, "fopen") != std::string::npos) {
      // Mode literals are blanked in the stripped text; consult the raw
      // lines. The mode argument may sit on a continuation line, so scan
      // a short window from the call; the stripped line tells us when the
      // call's parens actually close (a ')' in a trailing comment must
      // not end the window). Read-side fopen ("r", "rb") stays legal —
      // only a write or append mode can tear an artifact.
      for (std::size_t lj = li; lj < f.raw.size() && lj < li + 3; ++lj) {
        hit = f.raw[lj].find("\"w") != std::string::npos ||
              f.raw[lj].find("\"a") != std::string::npos;
        if (hit || f.code[lj].find(')') != std::string::npos) break;
      }
    }
    if (hit)
      rep.report(f.rel, static_cast<int>(li + 1), "no-bare-artifact-write",
                 "bare file write; route artifacts through atomic_write_file "
                 "or JournalWriter (support/atomic_io.hpp) so a crash cannot "
                 "leave a torn file (docs/ROBUSTNESS.md §11)");
  }
}

namespace {

bool in_reduction_dirs(const std::string& rel) {
  return rel.rfind("src/core/", 0) == 0 || rel.rfind("src/sim/", 0) == 0 ||
         rel.rfind("src/ser/", 0) == 0 || rel.rfind("src/check/", 0) == 0;
}

/// Collects identifiers declared in this file with an unordered_* type.
/// Heuristic and file-local by design (documented in STATIC_ANALYSIS.md):
/// cross-file aliasing is out of scope, but the guarded directories keep
/// their containers local, so this catches the real hazard.
std::set<std::string> unordered_names(const SourceFile& f) {
  std::set<std::string> names;
  for (const std::string& line : f.code) {
    std::size_t pos = line.find("unordered_");
    while (pos != std::string::npos) {
      std::size_t i = line.find('<', pos);
      if (i == std::string::npos) break;
      int depth = 0;
      for (; i < line.size(); ++i) {
        if (line[i] == '<') ++depth;
        if (line[i] == '>' && --depth == 0) break;
      }
      if (i >= line.size()) break;  // declaration continues on next line
      std::size_t j = skip_spaces(line, i + 1);
      while (j < line.size() && (line[j] == '&' || line[j] == '*')) ++j;
      j = skip_spaces(line, j);
      if (line.compare(j, 5, "const") == 0 && !ident_char(line[j + 5]))
        j = skip_spaces(line, j + 5);
      std::string name;
      while (j < line.size() && ident_char(line[j])) name += line[j++];
      if (!name.empty()) names.insert(name);
      pos = line.find("unordered_", i);
    }
  }
  return names;
}

}  // namespace

void rule_unordered_range_for(const SourceFile& f, Reporter& rep) {
  if (!in_reduction_dirs(f.rel)) return;
  const std::set<std::string> names = unordered_names(f);
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    const std::size_t fpos = find_token(line, "for");
    if (fpos == std::string::npos) continue;
    const std::size_t open = skip_spaces(line, fpos + 3);
    if (open >= line.size() || line[open] != '(') continue;
    // A range-for has a single ':' that is not part of '::'.
    std::size_t colon = std::string::npos;
    for (std::size_t i = open; i < line.size(); ++i) {
      if (line[i] != ':') continue;
      if (i + 1 < line.size() && line[i + 1] == ':') { ++i; continue; }
      if (i > 0 && line[i - 1] == ':') continue;
      colon = i;
      break;
    }
    if (colon == std::string::npos) continue;
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos || close <= colon) continue;
    const std::string range = line.substr(colon + 1, close - colon - 1);
    bool hit = range.find("unordered_") != std::string::npos;
    for (const std::string& name : names)
      if (find_token(range, name) != std::string::npos) hit = true;
    if (hit)
      rep.report(f.rel, static_cast<int>(li + 1), "no-unordered-range-for",
                 "range-for over an unordered container: iteration order is "
                 "nondeterministic; iterate a sorted view or index order "
                 "instead (docs/PARALLELISM.md)");
  }
}

void rule_trace_macro_pure(const SourceFile& f, Reporter& rep) {
  if (f.rel == "src/support/trace.hpp" || f.rel == "src/support/metrics.hpp")
    return;  // the macro definitions themselves
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    for (const char* macro : {"SERELIN_SPAN", "SERELIN_COUNT"}) {
      const std::size_t pos = find_token(f.code[li], macro);
      if (pos == std::string::npos) continue;
      // Accumulate the argument text across lines until parens balance.
      std::string args;
      int depth = 0;
      bool started = false, done = false;
      for (std::size_t lj = li; lj < f.code.size() && lj < li + 6 && !done;
           ++lj) {
        const std::string& line = f.code[lj];
        for (std::size_t i = lj == li ? pos : 0; i < line.size(); ++i) {
          if (line[i] == '(') {
            ++depth;
            started = true;
            if (depth == 1) continue;
          }
          if (line[i] == ')' && started && --depth == 0) {
            done = true;
            break;
          }
          if (started && depth >= 1) args += line[i];
        }
        args += ' ';
      }
      bool impure = false;
      std::string why;
      for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        const char a = args[i], b = args[i + 1];
        if ((a == '+' && b == '+') || (a == '-' && b == '-')) {
          impure = true;
          why = "increment/decrement";
          break;
        }
        if (b == '=' && (a == '+' || a == '-' || a == '*' || a == '/' ||
                         a == '%' || a == '^' || a == '|' || a == '&')) {
          impure = true;
          why = "compound assignment";
          break;
        }
        if (a == '=' && b != '=' &&
            (i == 0 || (args[i - 1] != '=' && args[i - 1] != '!' &&
                        args[i - 1] != '<' && args[i - 1] != '>'))) {
          impure = true;
          why = "assignment";
          break;
        }
      }
      if (impure)
        rep.report(f.rel, static_cast<int>(li + 1), "trace-macro-pure",
                   std::string(macro) + " argument contains " + why +
                       "; instrumentation compiles out under "
                       "SERELIN_TRACE=OFF, so arguments must be pure");
    }
  }
}

// ---------------------------------------------------------------------------
// Tree-level registry passes

void pass_diag_codes(const TreeIndex& tree, const fs::path& root,
                     Reporter& rep) {
  const std::vector<RegistryEntry> enums =
      extract_enumerators(tree, "src/support/diag.hpp", "DiagCode");
  if (enums.empty()) return;  // fixture trees without a diag layer
  const auto names =
      extract_name_table(tree, "src/support/diag.cpp", "DiagCode");
  if (tree.find("src/support/diag.cpp") == nullptr) return;

  for (const RegistryEntry& e : enums) {
    if (names.count(e.name)) continue;
    rep.report("src/support/diag.hpp", e.line, "diag-code-name",
               "DiagCode::" + e.name +
                   " has no diag_code_name case in src/support/diag.cpp");
  }

  const fs::path doc_path = root / "docs" / "ROBUSTNESS.md";
  if (!fs::exists(doc_path)) return;
  const std::string doc = slurp(doc_path);
  for (const auto& [enumerator, entry] : names) {
    const auto& [name, line] = entry;
    // The taxonomy table backticks every code; a prose mention without
    // backticks does not count as documentation.
    if (doc.find("`" + name + "`") != std::string::npos) continue;
    rep.report("src/support/diag.cpp", line, "diag-code-documented",
               "diag code '" + name +
                   "' is not documented (backticked) in docs/ROBUSTNESS.md");
  }
}

void pass_exit_codes(const TreeIndex& tree, const fs::path& root,
                     Reporter& rep) {
  const fs::path doc_path = root / "docs" / "ROBUSTNESS.md";
  if (!fs::exists(doc_path)) return;

  // Exit codes any tool actually uses: literal `return NN;` / `exit(NN)`
  // with NN in the sysexits-style band the registry documents. Every
  // tools/*.cpp participates — the registry is one shared namespace, so a
  // new tool inventing an undocumented code (or reusing a documented one
  // for a different meaning) is exactly what this rule must catch.
  struct Use {
    std::string rel;
    int line;
  };
  std::map<int, Use> used;  // code -> first use
  bool any_tool = false;
  for (const SourceFile& f : *tree.files) {
    if (f.rel.rfind("tools/", 0) != 0 || !f.rel.ends_with(".cpp")) continue;
    any_tool = true;
    for (std::size_t li = 0; li < f.code.size(); ++li) {
      const std::string& line = f.code[li];
      for (const char* kw : {"return", "exit"}) {
        std::size_t pos = find_token(line, kw);
        while (pos != std::string::npos) {
          std::size_t i = skip_spaces(line, pos + std::string(kw).size());
          if (i < line.size() && line[i] == '(') i = skip_spaces(line, i + 1);
          std::string digits;
          while (i < line.size() &&
                 std::isdigit(static_cast<unsigned char>(line[i])))
            digits += line[i++];
          if (digits.size() == 2) {
            const int code = std::stoi(digits);
            if (code >= 64 && code <= 79)
              used.emplace(code, Use{f.rel, static_cast<int>(li + 1)});
          }
          pos = find_token(line, kw, pos + 1);
        }
      }
      // The interrupted exit travels as a named constant, not a literal
      // (SignalGuard::kExitInterrupted == 78): count it as a use so the
      // registry row for 78 is not flagged as dead.
      if (find_token(line, "kExitInterrupted") != std::string::npos &&
          find_token(line, "constexpr") == std::string::npos)
        used.emplace(78, Use{f.rel, static_cast<int>(li + 1)});
    }
  }
  if (!any_tool) return;

  // Documented codes: `| NN |` table rows in ROBUSTNESS.md.
  std::map<int, int> documented;  // code -> line
  const std::vector<std::string> doc = read_lines(doc_path);
  for (std::size_t li = 0; li < doc.size(); ++li) {
    const std::string& line = doc[li];
    std::size_t i = skip_spaces(line, 0);
    if (i >= line.size() || line[i] != '|') continue;
    i = skip_spaces(line, i + 1);
    std::string digits;
    while (i < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[i])))
      digits += line[i++];
    i = skip_spaces(line, i);
    if (digits.size() == 2 && i < line.size() && line[i] == '|') {
      const int code = std::stoi(digits);
      if (code >= 64 && code <= 79)
        documented.emplace(code, static_cast<int>(li + 1));
    }
  }

  for (const auto& [code, use] : used) {
    if (documented.count(code)) continue;
    rep.report(use.rel, use.line, "exit-code-registry",
               "exit code " + std::to_string(code) +
                   " is not in the docs/ROBUSTNESS.md registry table");
  }
  for (const auto& [code, dline] : documented) {
    if (used.count(code)) continue;
    rep.report_raw("docs/ROBUSTNESS.md", dline, "exit-code-registry",
                   "documented exit code " + std::to_string(code) +
                       " is never produced by any tools/*.cpp");
  }
}

namespace {

/// kLpRelaxations -> lp-relaxations.
std::string kebab_of_enumerator(const std::string& e) {
  std::string out;
  for (std::size_t i = 1; i < e.size(); ++i) {
    const char c = e[i];
    if (std::isupper(static_cast<unsigned char>(c))) {
      if (i > 1) out += '-';
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      out += c;
    }
  }
  return out;
}

/// 1-based [first, last] line range of the section opened by the `## `
/// heading containing `title`, or {0, 0} when absent. The section ends
/// just before the next `## ` heading.
std::pair<int, int> doc_section(const std::vector<std::string>& lines,
                                const std::string& title) {
  int first = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].rfind("## ", 0) != 0) continue;
    if (first == 0) {
      if (lines[i].find(title) != std::string::npos)
        first = static_cast<int>(i + 1);
      continue;
    }
    return {first, static_cast<int>(i)};
  }
  return {first, first == 0 ? 0 : static_cast<int>(lines.size())};
}

}  // namespace

void pass_counter_registry(const TreeIndex& tree, const fs::path& root,
                           Reporter& rep) {
  std::vector<RegistryEntry> enums =
      extract_enumerators(tree, "src/support/metrics.hpp", "Counter");
  enums.erase(std::remove_if(enums.begin(), enums.end(),
                             [](const RegistryEntry& e) {
                               return e.name == "kCount";  // sentinel
                             }),
              enums.end());
  if (enums.empty()) return;  // fixture trees without a metrics layer
  const auto names =
      extract_name_table(tree, "src/support/metrics.cpp", "Counter");
  if (tree.find("src/support/metrics.cpp") == nullptr) return;

  std::set<std::string> name_set;
  for (const RegistryEntry& e : enums) {
    const auto it = names.find(e.name);
    if (it == names.end()) {
      rep.report("src/support/metrics.hpp", e.line, "counter-registry",
                 "Counter::" + e.name +
                     " has no counter_name case in src/support/metrics.cpp");
      continue;
    }
    const auto& [name, nline] = it->second;
    name_set.insert(name);
    const std::string expected = kebab_of_enumerator(e.name);
    if (name != expected)
      rep.report("src/support/metrics.cpp", nline, "counter-registry",
                 "counter name '" + name + "' does not match Counter::" +
                     e.name + " (expected '" + expected + "')");
  }

  const fs::path doc_path = root / "docs" / "OBSERVABILITY.md";
  if (fs::exists(doc_path)) {
    const std::vector<std::string> doc_lines = read_lines(doc_path);
    const auto [first, last] = doc_section(doc_lines, "Counter registry");
    if (first == 0) {
      rep.report_raw("docs/OBSERVABILITY.md", 1, "counter-registry",
                     "docs/OBSERVABILITY.md lacks a '## Counter registry' "
                     "section tabulating every counter");
    } else {
      std::set<std::string> documented;
      for (const RegistryEntry& row :
           extract_doc_table_idents(doc_path, "docs/OBSERVABILITY.md")) {
        if (row.line <= first || row.line > last) continue;
        documented.insert(row.name);
        if (!name_set.count(row.name))
          rep.report_raw("docs/OBSERVABILITY.md", row.line, "counter-registry",
                         "documented counter '" + row.name +
                             "' does not exist in src/support/metrics.hpp");
      }
      for (const RegistryEntry& e : enums) {
        const auto it = names.find(e.name);
        if (it == names.end()) continue;
        if (documented.count(it->second.first)) continue;
        rep.report("src/support/metrics.cpp", it->second.second,
                   "counter-registry",
                   "counter '" + it->second.first +
                       "' is missing from the docs/OBSERVABILITY.md counter "
                       "registry table");
      }
    }
  }

  // BENCH_*.json counters objects may only use registered counter names.
  std::vector<fs::path> benches;
  for (const auto& entry : fs::directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string fn = entry.path().filename().string();
    if (fn.rfind("BENCH_", 0) == 0 && fn.ends_with(".json"))
      benches.push_back(entry.path());
  }
  std::sort(benches.begin(), benches.end());
  for (const fs::path& b : benches) {
    std::set<std::string> seen;
    for (const RegistryEntry& key :
         extract_bench_counter_keys(b, b.filename().string())) {
      if (name_set.count(key.name) || !seen.insert(key.name).second) continue;
      rep.report_raw(key.file, key.line, "counter-registry",
                     "BENCH counter key '" + key.name +
                         "' is not a registered counter name "
                         "(src/support/metrics.cpp)");
    }
  }
}

void pass_protocol_schema(const TreeIndex& tree, const fs::path& root,
                          Reporter& rep) {
  const std::vector<RegistryEntry> fields = extract_protocol_fields(tree);
  if (fields.empty()) return;  // no serve layer in this tree
  const fs::path doc_path = root / "docs" / "SERVING.md";
  if (!fs::exists(doc_path)) return;

  std::map<std::string, RegistryEntry> first_use;  // field -> first site
  for (const RegistryEntry& e : fields)
    first_use.emplace(e.name, e);  // files are scanned in sorted order

  const std::vector<std::string> doc_lines = read_lines(doc_path);
  const auto [first, last] = doc_section(doc_lines, "Field registry");
  if (first == 0) {
    rep.report_raw("docs/SERVING.md", 1, "protocol-schema",
                   "docs/SERVING.md lacks a '## Field registry' section "
                   "tabulating the wire schema");
    return;
  }
  std::set<std::string> documented;
  for (const RegistryEntry& row :
       extract_doc_table_idents(doc_path, "docs/SERVING.md")) {
    if (row.line <= first || row.line > last) continue;
    documented.insert(row.name);
    if (!first_use.count(row.name))
      rep.report_raw("docs/SERVING.md", row.line, "protocol-schema",
                     "documented protocol field '" + row.name +
                         "' is never used by src/serve");
  }
  for (const auto& [name, e] : first_use) {
    if (documented.count(name)) continue;
    rep.report(e.file, e.line, "protocol-schema",
               "protocol field '" + name +
                   "' is not documented in the docs/SERVING.md field "
                   "registry");
  }
}

void pass_checkpoint_pairing(const TreeIndex& tree, Reporter& rep) {
  const SectionUses uses = extract_checkpoint_sections(tree);
  if (uses.emitted.empty() && uses.consumed.empty()) return;

  // Only restore paths in src/ and tools/ count: a section that only a
  // test decodes is still dead in every production checkpoint.
  std::set<std::string> consumed_names;
  for (const RegistryEntry& c : uses.consumed) consumed_names.insert(c.name);

  std::map<std::string, RegistryEntry> emitted;  // name -> first emit site
  for (const RegistryEntry& e : uses.emitted) emitted.emplace(e.name, e);

  for (const auto& [name, e] : emitted) {
    if (consumed_names.count(name)) continue;
    rep.report(e.file, e.line, "checkpoint-section-pairing",
               "checkpoint section '" + name +
                   "' is written but no restore path ever consumes it");
  }
  std::set<std::string> reported;
  for (const RegistryEntry& c : uses.consumed) {
    if (emitted.count(c.name) || !reported.insert(c.name).second) continue;
    rep.report(c.file, c.line, "checkpoint-section-pairing",
               "checkpoint restore reads section '" + c.name +
                   "' but no writer ever emits it");
  }
}

// ---------------------------------------------------------------------------
// Flow-aware pass: lock-order-cycle

namespace {

/// STL-ish member names are never linked through the lexical call graph:
/// a unique tree-defined function that happens to share a name with a
/// standard container method (e.g. `insert`) would otherwise claim every
/// `map.insert(...)` call site in the tree.
bool common_method_name(const std::string& s) {
  static const std::set<std::string> kCommon = {
      "insert",     "erase",        "find",       "count",    "push_back",
      "pop_back",   "push_front",   "pop_front",  "emplace",  "emplace_back",
      "emplace_front", "clear",     "size",       "empty",    "begin",
      "end",        "at",           "front",      "back",     "reset",
      "get",        "release",      "swap",       "push",     "pop",
      "top",        "str",          "c_str",      "data",     "substr",
      "append",     "resize",       "reserve",    "lock",     "unlock",
      "try_lock",   "load",         "store",      "exchange", "fetch_add",
      "value",      "value_or",     "has_value",  "min",      "max",
      "abs",        "move",         "forward",    "to_string", "make_unique",
      "make_shared", "run",         "join",       "detach"};
  return kCommon.count(s) > 0;
}

/// Resolves a call site to the unique tree-defined function with that
/// name, or nullptr (ambiguous, library, or blacklisted names resolve to
/// nothing — under-approximation by design).
const FunctionRef* link_call(const TreeIndex& tree, const CallSite& c) {
  if (common_method_name(c.callee)) return nullptr;
  const auto it = tree.functions_by_name.find(c.callee);
  if (it == tree.functions_by_name.end() || it->second.size() != 1)
    return nullptr;
  return &it->second.front();
}

/// Resolves a MutexLock / SERELIN_REQUIRES expression to a mutex identity
/// key; "" when it cannot be resolved (then the site is dropped, never
/// guessed).
std::string resolve_mutex_expr(const TreeIndex& tree, int file_idx,
                               const std::string& expr, int fn_idx) {
  // Parse the expression as an optional deref prefix plus a '.'/'->'
  // joined identifier chain; anything else is unresolvable.
  std::vector<std::string> chain;
  std::size_t i = 0;
  const std::size_t n = expr.size();
  while (i < n && (expr[i] == '*' || expr[i] == '&' ||
                   std::isspace(static_cast<unsigned char>(expr[i]))))
    ++i;
  while (i < n) {
    if (!ident_char(expr[i])) return "";
    std::string id;
    while (i < n && ident_char(expr[i])) id += expr[i++];
    chain.push_back(id);
    while (i < n && std::isspace(static_cast<unsigned char>(expr[i]))) ++i;
    if (i >= n) break;
    if (expr[i] == '.') {
      ++i;
    } else if (expr[i] == '-' && i + 1 < n && expr[i + 1] == '>') {
      i += 2;
    } else {
      return "";
    }
    while (i < n && std::isspace(static_cast<unsigned char>(expr[i]))) ++i;
  }
  if (chain.empty()) return "";
  if (chain.front() == "this") chain.erase(chain.begin());
  if (chain.empty()) return "";
  const std::string& last = chain.back();
  const FileIndex& ix = tree.indexes[static_cast<std::size_t>(file_idx)];
  const std::string& rel = ix.file->rel;

  if (chain.size() == 1) {
    // Function-local declaration in the same function.
    for (const MutexDecl& m : ix.mutexes)
      if (m.local && m.name == last && fn_idx >= 0 && m.function == fn_idx)
        return m.key;
    // Member of the enclosing method's record.
    if (fn_idx >= 0) {
      const std::string& rec =
          ix.functions[static_cast<std::size_t>(fn_idx)].record;
      if (!rec.empty()) {
        const std::string key = rec + "::" + last;
        if (tree.mutex_by_key.count(key)) return key;
      }
    }
    // File-scope global in the same file.
    for (const MutexDecl& m : ix.mutexes)
      if (!m.local && m.record.empty() && m.name == last) return m.key;
    // Unique global across the tree (header-declared).
    const MutexDecl* found = nullptr;
    for (const FileIndex& other : tree.indexes)
      for (const MutexDecl& m : other.mutexes)
        if (!m.local && m.record.empty() && m.name == last) {
          if (found != nullptr) return "";
          found = &m;
        }
    return found != nullptr ? found->key : "";
  }

  // Receiver chain: resolve through record members named `last`. Prefer a
  // record defined in this file; otherwise require tree-wide uniqueness.
  const auto it = tree.members_by_name.find(last);
  if (it == tree.members_by_name.end()) return "";
  const MutexDecl* same_file = nullptr;
  bool same_file_unique = true;
  for (const MutexDecl* m : it->second)
    if (m->key.rfind(rel + "::", 0) == 0) {
      if (same_file != nullptr) same_file_unique = false;
      same_file = m;
    }
  if (same_file != nullptr && same_file_unique) return same_file->key;
  if (it->second.size() == 1) return it->second.front()->key;
  return "";
}

struct HoldRegion {
  std::string key;
  std::size_t begin = 0, end = 0;
  int file = -1;
  int line = 0;
};

struct LockEdge {
  std::string from, to;
  std::string file;  // witness site
  int line = 0;
  std::string via;   // callee name for call-graph edges, "" for lexical
};

}  // namespace

void pass_lock_order(const TreeIndex& tree, Reporter& rep) {
  const std::size_t nfiles = tree.indexes.size();

  // Resolve every acquisition site once.
  std::vector<std::vector<std::string>> lock_keys(nfiles);
  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    const FileIndex& ix = tree.indexes[fi];
    lock_keys[fi].reserve(ix.locks.size());
    for (const LockSite& ls : ix.locks)
      lock_keys[fi].push_back(resolve_mutex_expr(
          tree, static_cast<int>(fi), ls.expr, ls.function));
  }

  // Direct acquisitions per function, then the transitive closure over the
  // lexical call graph (unique-name linking).
  std::map<std::pair<int, int>, std::set<std::string>> acquires;
  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    const FileIndex& ix = tree.indexes[fi];
    for (std::size_t li = 0; li < ix.locks.size(); ++li)
      if (ix.locks[li].function >= 0 && !lock_keys[fi][li].empty())
        acquires[{static_cast<int>(fi), ix.locks[li].function}].insert(
            lock_keys[fi][li]);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < nfiles; ++fi) {
      const FileIndex& ix = tree.indexes[fi];
      for (const CallSite& c : ix.calls) {
        if (c.function < 0) continue;
        const FunctionRef* g = link_call(tree, c);
        if (g == nullptr) continue;
        const auto git = acquires.find({g->file, g->fn});
        if (git == acquires.end()) continue;
        auto& mine = acquires[{static_cast<int>(fi), c.function}];
        for (const std::string& k : git->second)
          if (mine.insert(k).second) changed = true;
      }
    }
  }

  // Hold regions: every MutexLock's RAII extent, plus whole function
  // bodies for SERELIN_REQUIRES preconditions (the caller holds the lock
  // across the body).
  std::vector<HoldRegion> regions;
  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    const FileIndex& ix = tree.indexes[fi];
    for (std::size_t li = 0; li < ix.locks.size(); ++li)
      if (!lock_keys[fi][li].empty())
        regions.push_back({lock_keys[fi][li], ix.locks[li].off,
                           ix.locks[li].scope_close, static_cast<int>(fi),
                           ix.locks[li].line});
    for (std::size_t gi = 0; gi < ix.functions.size(); ++gi) {
      const Function& fn = ix.functions[gi];
      for (const std::string& expr : fn.requires_exprs) {
        const std::string key = resolve_mutex_expr(
            tree, static_cast<int>(fi), expr, static_cast<int>(gi));
        if (!key.empty())
          regions.push_back({key, fn.body_open, fn.body_close,
                             static_cast<int>(fi), fn.line});
      }
    }
  }

  // Edges: a lock acquired, or a lock-acquiring function called, inside a
  // hold region.
  std::vector<LockEdge> edges;
  for (const HoldRegion& r : regions) {
    const std::size_t fi = static_cast<std::size_t>(r.file);
    const FileIndex& ix = tree.indexes[fi];
    for (std::size_t li = 0; li < ix.locks.size(); ++li) {
      const LockSite& b = ix.locks[li];
      if (b.off <= r.begin || b.off >= r.end || lock_keys[fi][li].empty())
        continue;
      edges.push_back(
          {r.key, lock_keys[fi][li], ix.file->rel, b.line, ""});
    }
    for (const CallSite& c : ix.calls) {
      if (c.off <= r.begin || c.off >= r.end) continue;
      const FunctionRef* g = link_call(tree, c);
      if (g == nullptr) continue;
      const auto git = acquires.find({g->file, g->fn});
      if (git == acquires.end()) continue;
      for (const std::string& k : git->second)
        edges.push_back({r.key, k, ix.file->rel, c.line, c.callee});
    }
  }

  // Cycle detection: Tarjan SCCs over the acquisition digraph; any SCC
  // with more than one node — or a self-loop — is a latent deadlock.
  std::map<std::string, std::set<std::string>> adj;
  for (const LockEdge& e : edges) adj[e.from].insert(e.to);
  std::map<std::string, int> index_of, low_of;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  std::vector<std::set<std::string>> sccs;
  int counter = 0;
  // Iterative Tarjan (explicit frames keep deep chains safe).
  struct Frame {
    std::string node;
    std::vector<std::string> succ;
    std::size_t next = 0;
  };
  std::vector<std::string> nodes;
  for (const auto& [from, tos] : adj) {
    nodes.push_back(from);
    for (const std::string& t : tos)
      if (!adj.count(t)) nodes.push_back(t);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  for (const std::string& start : nodes) {
    if (index_of.count(start)) continue;
    std::vector<Frame> frames;
    const auto open_node = [&](const std::string& v) {
      index_of[v] = low_of[v] = counter++;
      stack.push_back(v);
      on_stack.insert(v);
      Frame fr;
      fr.node = v;
      const auto it = adj.find(v);
      if (it != adj.end())
        fr.succ.assign(it->second.begin(), it->second.end());
      frames.push_back(std::move(fr));
    };
    open_node(start);
    while (!frames.empty()) {
      Frame& fr = frames.back();
      if (fr.next < fr.succ.size()) {
        const std::string& w = fr.succ[fr.next++];
        if (!index_of.count(w)) {
          open_node(w);
        } else if (on_stack.count(w)) {
          low_of[fr.node] = std::min(low_of[fr.node], index_of[w]);
        }
        continue;
      }
      if (low_of[fr.node] == index_of[fr.node]) {
        std::set<std::string> scc;
        while (true) {
          const std::string w = stack.back();
          stack.pop_back();
          on_stack.erase(w);
          scc.insert(w);
          if (w == fr.node) break;
        }
        sccs.push_back(std::move(scc));
      }
      const std::string done = fr.node;
      frames.pop_back();
      if (!frames.empty())
        low_of[frames.back().node] =
            std::min(low_of[frames.back().node], low_of[done]);
    }
  }

  for (const std::set<std::string>& scc : sccs) {
    bool cyclic = scc.size() > 1;
    if (!cyclic) {
      const std::string& only = *scc.begin();
      const auto it = adj.find(only);
      cyclic = it != adj.end() && it->second.count(only) > 0;
    }
    if (!cyclic) continue;
    // Witnesses: edges inside the SCC, lexically ordered.
    std::vector<const LockEdge*> inside;
    for (const LockEdge& e : edges)
      if (scc.count(e.from) && scc.count(e.to) &&
          (scc.size() > 1 || e.from == e.to))
        inside.push_back(&e);
    std::sort(inside.begin(), inside.end(),
              [](const LockEdge* a, const LockEdge* b) {
                return std::tie(a->file, a->line, a->from, a->to) <
                       std::tie(b->file, b->line, b->from, b->to);
              });
    inside.erase(std::unique(inside.begin(), inside.end(),
                             [](const LockEdge* a, const LockEdge* b) {
                               return a->from == b->from && a->to == b->to;
                             }),
                 inside.end());
    if (inside.empty()) continue;
    std::string desc;
    for (const LockEdge* e : inside) {
      if (!desc.empty()) desc += ", ";
      desc += "'" + e->from + "' then '" + e->to + "' (" + e->file + ":" +
              std::to_string(e->line) +
              (e->via.empty() ? "" : " via " + e->via + "()") + ")";
    }
    const LockEdge* w = inside.front();
    rep.report(w->file, w->line, "lock-order-cycle",
               scc.size() == 1
                   ? "mutex '" + w->from +
                         "' is re-acquired while already held (MutexLock "
                         "is not recursive): " + desc
                   : "mutex acquisition order cycle: " + desc +
                         "; nested acquisitions must follow one global "
                         "order");
  }
}

// ---------------------------------------------------------------------------
// Flow-aware pass: deadline-poll-coverage

namespace {

bool deadline_target(const std::string& rel) {
  return rel.rfind("src/core/", 0) == 0 || rel.rfind("src/timing/", 0) == 0 ||
         rel.rfind("src/ser/", 0) == 0 || rel == "src/serve/server.cpp";
}

/// True when the text region contains direct poll evidence: an identifier
/// that names a cancellation carrier (deadline/cancel/token/stop/poller),
/// or a condition-variable wait (a cancellation point in this codebase).
bool polls_directly(const FileIndex& ix, std::size_t begin, std::size_t end) {
  const std::string& text = ix.text;
  std::size_t i = begin;
  while (i < end && i < text.size()) {
    if (!ident_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && ident_char(text[j])) ++j;
    const std::string id = text.substr(i, j - i);
    if (deadlineish(id) || id == "wait" || id == "wait_for") return true;
    i = j;
  }
  return false;
}

}  // namespace

void pass_deadline_poll(const TreeIndex& tree, Reporter& rep) {
  const std::size_t nfiles = tree.indexes.size();

  // Per-function facts, then transitive closure over unique-name calls:
  // polls[f] — f's body (or a callee's) reaches poll evidence;
  // works[f] — f's body (or a callee's) contains a loop.
  std::map<std::pair<int, int>, bool> polls, works;
  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    const FileIndex& ix = tree.indexes[fi];
    for (std::size_t gi = 0; gi < ix.functions.size(); ++gi) {
      const Function& fn = ix.functions[gi];
      const std::pair<int, int> key{static_cast<int>(fi),
                                    static_cast<int>(gi)};
      polls[key] = polls_directly(ix, fn.body_open, fn.body_close);
      works[key] = false;
    }
    for (const Loop& lp : ix.loops)
      if (lp.function >= 0)
        works[{static_cast<int>(fi), lp.function}] = true;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < nfiles; ++fi) {
      const FileIndex& ix = tree.indexes[fi];
      for (const CallSite& c : ix.calls) {
        if (c.function < 0) continue;
        const FunctionRef* g = link_call(tree, c);
        if (g == nullptr) continue;
        const std::pair<int, int> me{static_cast<int>(fi), c.function};
        const std::pair<int, int> them{g->file, g->fn};
        if (polls[them] && !polls[me]) polls[me] = changed = true;
        if (works[them] && !works[me]) works[me] = changed = true;
      }
    }
  }

  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    const FileIndex& ix = tree.indexes[fi];
    if (!deadline_target(ix.file->rel)) continue;
    for (const Loop& lp : ix.loops) {
      if (lp.kind == Loop::Kind::kCountingFor ||
          lp.kind == Loop::Kind::kRangeFor)
        continue;  // structurally bounded
      // Region: loop header (condition included) through body end.
      const std::size_t begin =
          ix.line_off[static_cast<std::size_t>(lp.line - 1)];
      const std::size_t end = lp.body_end;
      if (polls_directly(ix, begin, end)) continue;
      // Container-drain loops — `while (!stack.empty())` and friends —
      // are this codebase's bounded DFS/worklist/heap traversals: they
      // terminate when the container empties, so they are not the
      // open-ended solve loops this rule exists for.
      {
        const std::string header =
            ix.text.substr(begin, lp.body_begin > begin
                                      ? lp.body_begin - begin
                                      : 0);
        const std::size_t e = header.find(".empty(");
        if (e != std::string::npos &&
            header.rfind('!', e) != std::string::npos)
          continue;
      }
      bool does_work = false, reaches_poll = false;
      for (const CallSite& c : ix.calls) {
        if (c.off <= begin || c.off >= end) continue;
        const FunctionRef* g = link_call(tree, c);
        if (g == nullptr) continue;
        const std::pair<int, int> them{g->file, g->fn};
        if (works.at(them)) does_work = true;
        if (polls.at(them)) reaches_poll = true;
      }
      // A nested loop inside the body is indexed work even without a
      // linked call.
      for (const Loop& inner : ix.loops)
        if (inner.body_begin > lp.body_begin && inner.body_end < end)
          does_work = true;
      if (does_work && !reaches_poll) {
        const char* what = lp.kind == Loop::Kind::kWhile
                               ? "while"
                               : lp.kind == Loop::Kind::kDo ? "do" : "for(;;)";
        rep.report(ix.file->rel, lp.line, "deadline-poll-coverage",
                   std::string("unbounded ") + what +
                       " loop performs indexed work but never reaches a "
                       "Deadline/CancelToken poll; poll inside the loop or "
                       "forward a deadline into its callees");
      }
    }
  }
}

}  // namespace serelin::analysis
