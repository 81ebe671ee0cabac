// esched-lint: a dependency-free, project-specific static checker.
//
// Enforces the hand-rolled rules this codebase's correctness rests on and
// that no off-the-shelf tool knows about:
//
//   raw-file-io         In the atomic-publication zones (src/dist/,
//                       src/obs/, src/engine/disk_cache.*,
//                       src/engine/report.*, src/engine/shm_cache.*)
//                       files must be published through
//                       common/atomic_file (atomic_write_file), never
//                       via raw std::ofstream / fopen / rename — a torn
//                       file under a final name breaks the queue protocol,
//                       shard merges and the crash-safety story.
//   nondeterminism      No rand()/std::random_device/wall-clock calls in
//                       library code: solves and reports are bitwise
//                       deterministic (N-thread == 1-thread, resumable
//                       streams, byte-identical merges), which one stray
//                       std::random_device seed silently destroys.
//                       steady_clock and file_time_type::clock (mtime
//                       heartbeats) are exempt.
//   stream-output       No std::cout/printf in library code; reports
//                       write to caller-supplied streams and the CLI owns
//                       the terminal. (snprintf formatting is fine.)
//   metric-vocabulary   Metric names passed as string literals to
//                       counter()/gauge()/histogram() must appear in the
//                       README's machine-readable metrics-vocabulary
//                       block, so --metrics-out consumers can rely on the
//                       documented names.
//   include-hygiene     Quoted includes are src/-root-relative (no "../",
//                       no "./"), must resolve to a real file, and
//                       <bits/stdc++.h> is banned.
//   header-guard        Every .hpp starts with #pragma once (after
//                       leading comments).
//
// Any rule is suppressible at a single line with an inline annotation on
// that line or in the contiguous comment/blank block directly above it
// (so a multi-line rationale comment covers the line it annotates):
//
//   // esched-lint: allow(raw-file-io): the --stream file is appended
//   // in place so a running sweep can be tailed
//
// Annotations naming an unknown rule are themselves diagnosed
// (unknown-suppression), so typos cannot silently disable checking.
//
// The rule engine is a library so tests/test_lint.cpp can drive it against
// fixture files; tools/lint/esched_lint_main.cpp wraps it as the
// `esched-lint` CLI (exit 0 clean, 1 findings, 2 usage/IO error).
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace esched::lint {

/// One diagnostic: `file:line: [rule] message`.
struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Everything lint_file() needs beyond the file itself.
struct LintContext {
  /// Metric-name patterns from the README vocabulary block. Empty means
  /// the metric-vocabulary rule reports every literal metric name (a
  /// missing block should be loud, not a silent pass).
  std::vector<std::string> vocabulary;
  /// Absolute path of the src/ root for include resolution; empty skips
  /// the include-existence check (fixture mode).
  std::string src_root;
};

/// The rule identifiers accepted by allow(...) annotations.
const std::vector<std::string>& rule_names();

/// Extracts the metric vocabulary patterns from README text: the lines of
/// the fenced code block opened by ```metrics-vocabulary. Patterns may
/// contain `<placeholder>` segments; blank lines and `#` comments inside
/// the block are ignored.
std::vector<std::string> metric_vocabulary_from_readme(
    const std::string& readme_text);

/// True when `name` matches `pattern`, where each `<placeholder>` in the
/// pattern matches one dot-free [A-Za-z0-9_-]+ segment.
bool metric_name_matches(const std::string& name, const std::string& pattern);

/// Lints one file. `path` is the repo-relative, forward-slash path (it
/// decides which zone rules apply); `content` is the file text.
std::vector<Finding> lint_file(const std::string& path,
                               const std::string& content,
                               const LintContext& ctx);

/// Scan configuration for run_lint().
struct Options {
  /// Repository root; src/ and README.md are resolved against it.
  std::string root = ".";
  /// Files or directories to scan, repo-root-relative (default: {"src"}).
  std::vector<std::string> paths;
  /// Override for the README supplying the metric vocabulary.
  std::string readme_path;
};

/// Walks the requested paths (`.hpp`/`.cpp` files) and lints each.
/// Throws std::runtime_error when the root or README is unreadable.
std::vector<Finding> run_lint(const Options& options);

/// Runs a scan and prints `file:line: [rule] message` diagnostics plus a
/// summary to `out`. Returns the process exit code: 0 clean, 1 findings,
/// 2 on scan errors (unreadable root/README).
int lint_main(const Options& options, std::ostream& out);

}  // namespace esched::lint
