#include "analysis/registry.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

namespace serelin::analysis {

namespace fs = std::filesystem;

namespace {

bool name_char(char c) {
  return std::islower(static_cast<unsigned char>(c)) ||
         std::isdigit(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

/// Extracts the double-quoted token starting at `raw[q]` (the opening
/// quote). Returns "" when the contents are not a plain registry-style
/// name (lowercase/digits/underscore/dash only).
std::string quoted_name(const std::string& raw, std::size_t q) {
  std::size_t i = q + 1;
  std::string name;
  while (i < raw.size() && raw[i] != '"') {
    if (!name_char(raw[i])) return "";
    name += raw[i];
    ++i;
  }
  if (i >= raw.size() || name.empty()) return "";
  return name;
}

bool includes_header(const SourceFile& f, const std::string& suffix) {
  for (const std::string& inc : f.includes) {
    if (inc.size() < suffix.size()) continue;
    if (inc.compare(inc.size() - suffix.size(), suffix.size(), suffix) == 0)
      return true;
  }
  return false;
}

}  // namespace

const FileIndex* TreeIndex::find(const std::string& rel) const {
  for (const FileIndex& ix : indexes)
    if (ix.file->rel == rel) return &ix;
  return nullptr;
}

TreeIndex build_tree_index(const std::vector<SourceFile>& files) {
  TreeIndex tree;
  tree.files = &files;
  tree.indexes.reserve(files.size());
  for (const SourceFile& f : files) tree.indexes.push_back(build_index(f));
  for (std::size_t fi = 0; fi < tree.indexes.size(); ++fi) {
    const FileIndex& ix = tree.indexes[fi];
    for (std::size_t gi = 0; gi < ix.functions.size(); ++gi)
      tree.functions_by_name[ix.functions[gi].name].push_back(
          {static_cast<int>(fi), static_cast<int>(gi)});
    for (const MutexDecl& m : ix.mutexes) {
      tree.mutex_by_key.emplace(m.key, &m);
      if (!m.record.empty()) tree.members_by_name[m.name].push_back(&m);
    }
  }
  return tree;
}

std::vector<RegistryEntry> extract_enumerators(const TreeIndex& tree,
                                               const std::string& rel,
                                               const std::string& enum_name) {
  std::vector<RegistryEntry> out;
  const FileIndex* ix = tree.find(rel);
  if (ix == nullptr) return out;
  const SourceFile& f = *ix->file;
  const std::string opener = "enum class " + enum_name;
  bool in_enum = false;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    if (!in_enum) {
      if (line.find(opener) != std::string::npos) in_enum = true;
      continue;
    }
    if (line.find("};") != std::string::npos) break;
    // Enumerators are k-prefixed identifiers.
    for (std::size_t i = 0; i < line.size();) {
      if (!ident_char(line[i])) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < line.size() && ident_char(line[j])) ++j;
      const std::string word = line.substr(i, j - i);
      if (word.size() > 1 && word[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(word[1])))
        out.push_back({word, rel, static_cast<int>(li + 1)});
      i = j;
    }
  }
  return out;
}

std::map<std::string, std::pair<std::string, int>> extract_name_table(
    const TreeIndex& tree, const std::string& rel,
    const std::string& enum_name) {
  std::map<std::string, std::pair<std::string, int>> out;
  const FileIndex* ix = tree.find(rel);
  if (ix == nullptr) return out;
  const SourceFile& f = *ix->file;
  const std::string prefix = "case " + enum_name + "::";
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::size_t cpos = f.code[li].find(prefix);
    if (cpos == std::string::npos) continue;
    std::size_t i = cpos + prefix.size();
    std::string enumerator;
    while (i < f.code[li].size() && ident_char(f.code[li][i]))
      enumerator += f.code[li][i++];
    if (enumerator.empty()) continue;
    // The stable name is on a `return "name";` within the next 3 raw lines.
    for (std::size_t lj = li; lj < f.raw.size() && lj < li + 3; ++lj) {
      const std::size_t rpos = f.raw[lj].find("return \"");
      if (rpos == std::string::npos) continue;
      const std::string name = quoted_name(f.raw[lj], rpos + 7);
      if (!name.empty())
        out[enumerator] = {name, static_cast<int>(lj + 1)};
      break;
    }
  }
  return out;
}

SectionUses extract_checkpoint_sections(const TreeIndex& tree) {
  SectionUses uses;
  for (const FileIndex& ix : tree.indexes) {
    const SourceFile& f = *ix.file;
    const bool consumer_tu = includes_header(f, "support/checkpoint.hpp");
    for (std::size_t li = 0; li < f.code.size(); ++li) {
      const std::string& code = f.code[li];
      const std::string& raw = f.raw[li];
      // Emitters: sections.emplace_back("x", ...) and with_section("x", ...).
      std::size_t p = std::string::npos;
      if (find_token(code, "sections") != std::string::npos &&
          (p = raw.find("emplace_back(\"")) != std::string::npos) {
        const std::string name = quoted_name(raw, p + 13);
        if (!name.empty())
          uses.emitted.push_back({name, f.rel, static_cast<int>(li + 1)});
      }
      if (find_token(code, "with_section") != std::string::npos &&
          (p = raw.find("with_section(\"")) != std::string::npos) {
        const std::string name = quoted_name(raw, p + 13);
        if (!name.empty())
          uses.emitted.push_back({name, f.rel, static_cast<int>(li + 1)});
      }
      // Consumers: <image>.find("x") in a TU that includes checkpoint.hpp.
      if (consumer_tu) {
        p = 0;
        while ((p = raw.find(".find(\"", p)) != std::string::npos) {
          const std::string name = quoted_name(raw, p + 6);
          if (!name.empty())
            uses.consumed.push_back({name, f.rel, static_cast<int>(li + 1)});
          p += 7;
        }
      }
    }
  }
  return uses;
}

std::vector<RegistryEntry> extract_protocol_fields(const TreeIndex& tree) {
  std::vector<RegistryEntry> out;
  static const char* const kAccessors[] = {
      "get_string(\"", "get_number(\"", "get_int(\"", "get_bool(\"",
      ".set(\"",       "fields.find(\""};
  for (const FileIndex& ix : tree.indexes) {
    const SourceFile& f = *ix.file;
    if (f.rel.compare(0, 10, "src/serve/") != 0) continue;
    for (std::size_t li = 0; li < f.raw.size(); ++li) {
      const std::string& raw = f.raw[li];
      for (const char* acc : kAccessors) {
        const std::string pat(acc);
        std::size_t p = 0;
        while ((p = raw.find(pat, p)) != std::string::npos) {
          const std::string name = quoted_name(raw, p + pat.size() - 1);
          if (!name.empty())
            out.push_back({name, f.rel, static_cast<int>(li + 1)});
          p += pat.size();
        }
      }
      // check_fields allowlists: an initializer list `{ "a", "b", ... }`,
      // or a typed one `{{"a", kind}, {"b", kind}, ...}`, passed as an
      // argument (the brace is preceded by '(' or ',').
      if (find_token(f.code[li], "check_fields") == std::string::npos)
        continue;
      std::string window;
      std::vector<std::size_t> window_line;  // line of each window char
      for (std::size_t lj = li; lj < f.raw.size() && lj < li + 8; ++lj) {
        for (char c : f.raw[lj]) {
          window += c;
          window_line.push_back(lj);
        }
        window += '\n';
        window_line.push_back(lj);
      }
      const std::size_t cf = window.find("check_fields");
      const std::size_t brace = window.find('{', cf);
      if (brace == std::string::npos) continue;
      std::size_t prev = brace;
      while (prev > 0 &&
             std::isspace(static_cast<unsigned char>(window[prev - 1])))
        --prev;
      if (prev == 0 || (window[prev - 1] != '(' && window[prev - 1] != ','))
        continue;
      int depth = 0;
      for (std::size_t i = brace; i < window.size(); ++i) {
        if (window[i] == '{') ++depth;
        if (window[i] == '}' && --depth == 0) break;
        if (window[i] != '"') continue;
        const std::string name = quoted_name(window, i);
        if (!name.empty()) {
          out.push_back({name, f.rel,
                         static_cast<int>(window_line[i] + 1)});
          i += name.size() + 1;
        }
      }
    }
  }
  return out;
}

std::vector<RegistryEntry> extract_doc_table_idents(const fs::path& doc,
                                                    const std::string& rel) {
  std::vector<RegistryEntry> out;
  const std::vector<std::string> raw = read_lines(doc);
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    std::size_t i = skip_spaces(line, 0);
    if (i >= line.size() || line[i] != '|') continue;
    i = skip_spaces(line, i + 1);
    if (i >= line.size() || line[i] != '`') continue;
    std::size_t j = i + 1;
    std::string name;
    while (j < line.size() && line[j] != '`') name += line[j++];
    if (j >= line.size() || name.empty()) continue;
    // The cell must hold exactly the backticked name.
    std::size_t k = skip_spaces(line, j + 1);
    if (k >= line.size() || line[k] != '|') continue;
    bool ok = true;
    for (char c : name)
      if (!ident_char(c) && c != '-') ok = false;
    if (ok) out.push_back({name, rel, static_cast<int>(li + 1)});
  }
  return out;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<RegistryEntry> extract_bench_counter_keys(const fs::path& abs,
                                                      const std::string& rel) {
  std::vector<RegistryEntry> out;
  const std::vector<std::string> raw = read_lines(abs);
  for (std::size_t li = 0; li < raw.size(); ++li) {
    const std::string& line = raw[li];
    const std::size_t c = line.find("\"counters\"");
    if (c == std::string::npos) continue;
    const std::size_t brace = line.find('{', c);
    if (brace == std::string::npos) continue;
    for (std::size_t i = brace + 1; i < line.size() && line[i] != '}'; ++i) {
      if (line[i] != '"') continue;
      const std::string name = quoted_name(line, i);
      if (name.empty()) break;
      out.push_back({name, rel, static_cast<int>(li + 1)});
      i += name.size() + 1;
      // Skip the value to the next ',' or '}'.
      while (i + 1 < line.size() && line[i + 1] != ',' && line[i + 1] != '}')
        ++i;
    }
  }
  return out;
}

}  // namespace serelin::analysis
