#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace esched::lint {

namespace fs = std::filesystem;

namespace {

const char* kRuleRawFileIo = "raw-file-io";
const char* kRuleNondeterminism = "nondeterminism";
const char* kRuleStreamOutput = "stream-output";
const char* kRuleMetricVocabulary = "metric-vocabulary";
const char* kRuleIncludeHygiene = "include-hygiene";
const char* kRuleHeaderGuard = "header-guard";
const char* kRuleUnknownSuppression = "unknown-suppression";

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// One scanned line: the raw text plus a position-aligned mask telling,
/// for every character, whether it is code ('c'), string-literal text
/// ('s', including the quotes), or comment ('/').
struct MaskedLine {
  std::string raw;
  std::string mask;

  /// The code characters only, with everything else blanked to spaces —
  /// same length as `raw`, so match positions line up.
  std::string code() const {
    std::string out(raw.size(), ' ');
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (mask[i] == 'c') out[i] = raw[i];
    }
    return out;
  }
};

/// Splits `content` into masked lines, tracking block comments and raw
/// strings across line boundaries. Unterminated plain string/char
/// literals are tolerated (reset at end of line) so a torn fixture cannot
/// wedge the scanner.
std::vector<MaskedLine> scan_lines(const std::string& content) {
  enum class State { kNormal, kString, kChar, kBlockComment, kRawString };
  std::vector<MaskedLine> lines;
  State state = State::kNormal;
  std::string raw_delim;  // for raw strings: the )delim" terminator

  std::size_t pos = 0;
  while (pos <= content.size()) {
    const std::size_t eol = content.find('\n', pos);
    const std::string line = content.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    MaskedLine ml;
    ml.raw = line;
    ml.mask.assign(line.size(), 'c');

    bool line_comment = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line_comment) {
        ml.mask[i] = '/';
        continue;
      }
      switch (state) {
        case State::kNormal: {
          const char c = line[i];
          if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
            ml.mask[i] = '/';
            line_comment = true;
          } else if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
            ml.mask[i] = '/';
            ml.mask[i + 1] = '/';
            ++i;
            state = State::kBlockComment;
          } else if (c == '"') {
            // R"delim( opens a raw string; a preceding identifier char
            // means the R is part of a longer name (e.g. _R).
            if (i >= 1 && line[i - 1] == 'R' &&
                (i < 2 || !is_ident_char(line[i - 2]))) {
              const std::size_t open = line.find('(', i + 1);
              raw_delim = ")" +
                          line.substr(i + 1, open == std::string::npos
                                                 ? std::string::npos
                                                 : open - i - 1) +
                          "\"";
              ml.mask[i] = 's';
              state = State::kRawString;
            } else {
              ml.mask[i] = 's';
              state = State::kString;
            }
          } else if (c == '\'') {
            ml.mask[i] = 's';
            state = State::kChar;
          }
          break;
        }
        case State::kString:
        case State::kChar: {
          ml.mask[i] = 's';
          if (line[i] == '\\') {
            if (i + 1 < line.size()) ml.mask[++i] = 's';
          } else if ((state == State::kString && line[i] == '"') ||
                     (state == State::kChar && line[i] == '\'')) {
            state = State::kNormal;
          }
          break;
        }
        case State::kBlockComment: {
          ml.mask[i] = '/';
          if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
            ml.mask[i + 1] = '/';
            ++i;
            state = State::kNormal;
          }
          break;
        }
        case State::kRawString: {
          ml.mask[i] = 's';
          if (line.compare(i, raw_delim.size(), raw_delim) == 0) {
            for (std::size_t k = 0; k < raw_delim.size() && i + k < line.size();
                 ++k) {
              ml.mask[i + k] = 's';
            }
            i += raw_delim.size() - 1;
            state = State::kNormal;
          }
          break;
        }
      }
    }
    // Plain literals cannot span lines; raw strings and block comments can.
    if (state == State::kString || state == State::kChar) {
      state = State::kNormal;
    }
    lines.push_back(std::move(ml));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return lines;
}

/// Positions where `id` occurs in `text` as a whole identifier.
std::vector<std::size_t> identifier_positions(const std::string& text,
                                              const std::string& id) {
  std::vector<std::size_t> out;
  std::size_t from = 0;
  while (true) {
    const std::size_t p = text.find(id, from);
    if (p == std::string::npos) break;
    const bool left_ok = p == 0 || !is_ident_char(text[p - 1]);
    const bool right_ok =
        p + id.size() >= text.size() || !is_ident_char(text[p + id.size()]);
    if (left_ok && right_ok) out.push_back(p);
    from = p + 1;
  }
  return out;
}

bool contains_identifier(const std::string& text, const std::string& id) {
  return !identifier_positions(text, id).empty();
}

/// The allow(...) rule names on one raw line, in order. Annotations look
/// like `// esched-lint: allow(rule-a, rule-b): rationale...`.
std::vector<std::string> parse_allows(const std::string& raw) {
  std::vector<std::string> names;
  std::size_t tag = raw.find("esched-lint:");
  while (tag != std::string::npos) {
    std::size_t p = raw.find("allow(", tag);
    while (p != std::string::npos) {
      const std::size_t close = raw.find(')', p);
      if (close == std::string::npos) break;
      std::string inside = raw.substr(p + 6, close - p - 6);
      std::string name;
      for (const char c : inside + ",") {
        if (c == ',' || c == ' ' || c == '\t') {
          if (!name.empty()) names.push_back(name);
          name.clear();
        } else {
          name += c;
        }
      }
      p = raw.find("allow(", close);
    }
    tag = raw.find("esched-lint:", tag + 1);
  }
  return names;
}

bool in_atomic_publication_zone(const std::string& path) {
  return path.rfind("src/dist/", 0) == 0 || path.rfind("src/obs/", 0) == 0 ||
         path.rfind("src/engine/disk_cache", 0) == 0 ||
         path.rfind("src/engine/report", 0) == 0 ||
         path.rfind("src/engine/shm_cache", 0) == 0;
}

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// Extracts the string literal opening at raw[p] == '"'. Returns false
/// when the literal does not close on this line. On success `*end` (if
/// given) is the index of the closing quote.
bool read_string_literal(const std::string& raw, std::size_t p,
                         std::string* out, std::size_t* end = nullptr) {
  if (p >= raw.size() || raw[p] != '"') return false;
  std::string text;
  for (std::size_t i = p + 1; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size()) {
      text += raw[++i];
    } else if (raw[i] == '"') {
      *out = std::move(text);
      if (end != nullptr) *end = i;
      return true;
    } else {
      text += raw[i];
    }
  }
  return false;
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      kRuleRawFileIo,       kRuleNondeterminism, kRuleStreamOutput,
      kRuleMetricVocabulary, kRuleIncludeHygiene, kRuleHeaderGuard,
  };
  return names;
}

std::vector<std::string> metric_vocabulary_from_readme(
    const std::string& readme_text) {
  std::vector<std::string> patterns;
  std::istringstream in(readme_text);
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    const std::string t = trimmed(line);
    if (!inside) {
      if (t.rfind("```metrics-vocabulary", 0) == 0) inside = true;
      continue;
    }
    if (t.rfind("```", 0) == 0) break;
    if (t.empty() || t[0] == '#') continue;
    patterns.push_back(t);
  }
  return patterns;
}

bool metric_name_matches(const std::string& name, const std::string& pattern) {
  std::size_t n = 0;
  std::size_t p = 0;
  while (p < pattern.size()) {
    if (pattern[p] == '<') {
      const std::size_t close = pattern.find('>', p);
      if (close == std::string::npos) return false;  // malformed pattern
      // A placeholder matches one nonempty dot-free segment.
      std::size_t consumed = 0;
      while (n < name.size() && name[n] != '.' &&
             (is_ident_char(name[n]) || name[n] == '-')) {
        ++n;
        ++consumed;
      }
      if (consumed == 0) return false;
      p = close + 1;
    } else {
      if (n >= name.size() || name[n] != pattern[p]) return false;
      ++n;
      ++p;
    }
  }
  return n == name.size();
}

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& content,
                               const LintContext& ctx) {
  const std::vector<MaskedLine> lines = scan_lines(content);
  const bool is_header = path.size() > 4 &&
                         path.compare(path.size() - 4, 4, ".hpp") == 0;
  const bool atomic_zone = in_atomic_publication_zone(path);

  // Suppressions first: allows[i] covers findings on line i and i + 1.
  std::vector<std::vector<std::string>> allows(lines.size());
  std::vector<Finding> findings;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    allows[i] = parse_allows(lines[i].raw);
    for (const std::string& name : allows[i]) {
      const auto& known = rule_names();
      if (std::find(known.begin(), known.end(), name) == known.end()) {
        findings.push_back({path, i + 1, kRuleUnknownSuppression,
                            "suppression names unknown rule '" + name +
                                "' (known: raw-file-io, nondeterminism, "
                                "stream-output, metric-vocabulary, "
                                "include-hygiene, header-guard)"});
      }
    }
  }
  // A finding on line L is suppressed by an allow() on L itself or in the
  // contiguous run of comment-only/blank lines directly above it — so a
  // multi-line rationale comment covers the code line it annotates.
  const auto suppressed = [&](std::size_t line_index, const char* rule) {
    const auto has = [&](const std::vector<std::string>& v) {
      return std::find(v.begin(), v.end(), rule) != v.end();
    };
    if (has(allows[line_index])) return true;
    for (std::size_t i = line_index; i-- > 0;) {
      if (has(allows[i])) return true;
      if (!trimmed(lines[i].code()).empty()) break;  // a real code line
    }
    return false;
  };
  const auto report = [&](std::size_t line_index, const char* rule,
                          const std::string& message) {
    if (!suppressed(line_index, rule)) {
      findings.push_back({path, line_index + 1, rule, message});
    }
  };

  // header-guard: the first code line of a header must be #pragma once.
  if (is_header) {
    bool guarded = false;
    bool has_code = false;
    for (const MaskedLine& ml : lines) {
      const std::string t = trimmed(ml.code());
      if (t.empty()) continue;
      has_code = true;
      guarded = t.rfind("#pragma once", 0) == 0;
      break;
    }
    if (has_code && !guarded) {
      findings.push_back({path, 1, kRuleHeaderGuard,
                          "header must open with #pragma once (before any "
                          "other code)"});
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string code = lines[i].code();
    const std::string code_trimmed = trimmed(code);
    const bool preprocessor = !code_trimmed.empty() && code_trimmed[0] == '#';

    // include-hygiene ------------------------------------------------------
    if (preprocessor && code_trimmed.rfind("#include", 0) == 0) {
      const std::string& raw = lines[i].raw;
      if (raw.find("<bits/stdc++.h>") != std::string::npos) {
        report(i, kRuleIncludeHygiene,
               "<bits/stdc++.h> is non-portable and bans nothing; include "
               "the specific standard headers");
      }
      const std::size_t q = raw.find('"');
      std::string inc;
      if (q != std::string::npos && read_string_literal(raw, q, &inc)) {
        if (inc.rfind("./", 0) == 0 || inc.find("../") != std::string::npos) {
          report(i, kRuleIncludeHygiene,
                 "quoted include '" + inc +
                     "' must be src/-root-relative (no ../ or ./ paths)");
        } else if (!ctx.src_root.empty() &&
                   !fs::exists(fs::path(ctx.src_root) / inc)) {
          report(i, kRuleIncludeHygiene,
                 "quoted include '" + inc +
                     "' does not resolve from the src/ root");
        }
      }
    }

    // raw-file-io ----------------------------------------------------------
    if (atomic_zone && !preprocessor &&
        path.rfind("src/common/atomic_file", 0) != 0) {
      for (const char* id : {"ofstream", "fopen", "freopen", "rename"}) {
        if (contains_identifier(code, id)) {
          report(i, kRuleRawFileIo,
                 std::string("raw '") + id +
                     "' in an atomic-publication zone; publish through "
                     "common/atomic_file (atomic_write_file)");
        }
      }
    }

    // nondeterminism -------------------------------------------------------
    for (const char* id :
         {"rand", "srand", "drand48", "random_device", "system_clock",
          "gettimeofday", "localtime", "gmtime"}) {
      if (contains_identifier(code, id)) {
        report(i, kRuleNondeterminism,
               std::string("'") + id +
                   "' breaks bitwise determinism (seeded per-point xoshiro "
                   "and steady_clock are the project idiom)");
      }
    }
    for (const std::size_t p : identifier_positions(code, "clock")) {
      // The filesystem's mtime clock is the lease-heartbeat protocol and
      // is allowed; std::clock / bare clock() are not.
      static const std::string kMtime = "file_time_type::";
      if (p >= kMtime.size() &&
          code.compare(p - kMtime.size(), kMtime.size(), kMtime) == 0) {
        continue;
      }
      report(i, kRuleNondeterminism,
             "'clock' reads wall/CPU time in a deterministic path (use "
             "steady_clock for durations)");
    }
    if (code.find("std::time(") != std::string::npos) {
      report(i, kRuleNondeterminism,
             "'std::time' reads the wall clock in a deterministic path");
    }

    // stream-output --------------------------------------------------------
    for (const char* id : {"printf", "puts", "putchar"}) {
      if (contains_identifier(code, id)) {
        report(i, kRuleStreamOutput,
               std::string("'") + id +
                   "' writes to the terminal from library code; write to a "
                   "caller-supplied stream (snprintf into a buffer is fine)");
      }
    }
    for (const char* pat : {"std::cout", "std::clog"}) {
      if (code.find(pat) != std::string::npos) {
        report(i, kRuleStreamOutput,
               std::string("'") + pat +
                   "' in library code; the CLI owns the terminal — write to "
                   "a caller-supplied stream");
      }
    }

    // metric-vocabulary ----------------------------------------------------
    for (const char* fn : {"counter", "gauge", "histogram"}) {
      for (std::size_t p : identifier_positions(code, fn)) {
        std::size_t q = p + std::string(fn).size();
        while (q < code.size() && code[q] == ' ') ++q;
        if (q >= code.size() || code[q] != '(') continue;
        ++q;
        // From here scan the raw line: the string literal is blanked to
        // spaces in the code mask, so the quote only exists in raw.
        const std::string& raw = lines[i].raw;
        while (q < raw.size() && (raw[q] == ' ' || raw[q] == '\t')) ++q;
        std::string name;
        std::size_t lit_end = 0;
        if (!read_string_literal(raw, q, &name, &lit_end)) continue;
        // A `+` after the literal means the name is built by concatenation
        // — not a complete metric name, so the vocabulary cannot judge it.
        std::size_t after = lit_end + 1;
        while (after < code.size() && code[after] == ' ') ++after;
        if (after < code.size() && code[after] == '+') continue;
        bool known = false;
        for (const std::string& pattern : ctx.vocabulary) {
          if (metric_name_matches(name, pattern)) {
            known = true;
            break;
          }
        }
        if (!known) {
          report(i, kRuleMetricVocabulary,
                 "metric '" + name +
                     "' is not in the README metrics-vocabulary block; "
                     "document it there (or fix the name)");
        }
      }
    }
  }

  return findings;
}

std::vector<Finding> run_lint(const Options& options) {
  const fs::path root(options.root);
  if (!fs::exists(root)) {
    throw std::runtime_error("esched-lint: root '" + options.root +
                             "' does not exist");
  }
  const std::string readme_path =
      options.readme_path.empty() ? (root / "README.md").string()
                                  : options.readme_path;
  std::ifstream readme(readme_path);
  if (!readme.good()) {
    throw std::runtime_error("esched-lint: cannot read README at '" +
                             readme_path + "'");
  }
  std::ostringstream readme_text;
  readme_text << readme.rdbuf();

  LintContext ctx;
  ctx.vocabulary = metric_vocabulary_from_readme(readme_text.str());
  ctx.src_root = (root / "src").string();

  std::vector<std::string> paths = options.paths;
  if (paths.empty()) paths = {"src"};

  std::vector<std::string> files;
  for (const std::string& p : paths) {
    const fs::path full = root / p;
    if (fs::is_directory(full)) {
      for (fs::recursive_directory_iterator it(full), end; it != end; ++it) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext != ".hpp" && ext != ".cpp") continue;
        files.push_back(fs::relative(it->path(), root).generic_string());
      }
    } else if (fs::is_regular_file(full)) {
      files.push_back(fs::path(p).generic_string());
    } else {
      throw std::runtime_error("esched-lint: path '" + p +
                               "' not found under root '" + options.root +
                               "'");
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const std::string& file : files) {
    std::ifstream in(root / file);
    if (!in.good()) {
      throw std::runtime_error("esched-lint: cannot read '" + file + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<Finding> file_findings = lint_file(file, text.str(), ctx);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  return findings;
}

int lint_main(const Options& options, std::ostream& out) {
  std::vector<Finding> findings;
  try {
    findings = run_lint(options);
  } catch (const std::exception& e) {
    out << e.what() << "\n";
    return 2;
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  if (findings.empty()) {
    out << "esched-lint: clean\n";
    return 0;
  }
  out << "esched-lint: " << findings.size() << " finding(s)\n";
  return 1;
}

}  // namespace esched::lint
