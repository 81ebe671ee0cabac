// Sweep result reporting: CSV and JSON persistence plus named console
// views, built on common/csv and common/table so every scenario emits the
// same uniform schema regardless of which solver produced each row. The
// views render the classic figure/study layouts (winner heat maps, vs-k
// panels, accuracy deltas, tail tables, ...) straight from engine results
// for the CLI's --view flag.
#pragma once

#include <fstream>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace esched {

/// True when any point carries a non-exponential size distribution, in
/// which case the report schema appends size_dist_i/size_dist_e columns
/// (canonical spec strings). Exponential-only reports keep the exact
/// pre-refactor schema, so every existing golden stays byte-identical.
bool report_has_size_dists(const std::vector<RunPoint>& points);

/// The uniform CSV report schema (one row per RunPoint, input order) is
/// fully deterministic: volatile per-invocation facts — wall time and
/// cache provenance — live in RunResult/SweepStats and the JSON stats
/// block, never in CSV rows. That is what makes shard CSVs merge to the
/// unsharded report byte-for-byte and an interrupted streaming run resume
/// byte-identically. Every CSV report ends in a summary trailer ("# "
/// comment lines) recomputed from the row text alone (see CsvSummary).
///
/// `with_size_dist` selects the size-dist schema; nullopt derives it from
/// `points` via report_has_size_dists. When writing a shard SLICE of a
/// larger sweep, pass report_has_size_dists of the FULL sweep instead —
/// deriving from the slice would let shards of a mixed exp/non-exp
/// size_dist sweep disagree on the header and `esched merge` refuse them.
/// Published atomically (common/atomic_file): a failed write leaves `path`
/// as it was.
void write_csv_report(const std::string& path,
                      const std::vector<RunPoint>& points,
                      const std::vector<RunResult>& results,
                      std::optional<bool> with_size_dist = std::nullopt);

/// The deterministic summary trailer of a CSV report: row count plus
/// mean/min/max of the "et" column when the header has one. Accumulates
/// from the *formatted cell text* (not the doubles behind it) in row
/// order, so a merge that re-reads rows from disk reproduces the block
/// byte-for-byte.
class CsvSummary {
 public:
  explicit CsvSummary(const std::vector<std::string>& header);

  /// Folds one data row in (cells must match the header arity).
  void add_row(const std::vector<std::string>& cells);

  /// Writes the "# summary ..." lines.
  void write(std::ostream& os) const;

  std::size_t rows() const { return rows_; }

 private:
  std::ptrdiff_t et_column_ = -1;
  std::size_t rows_ = 0;
  double et_sum_ = 0.0;
  double et_min_ = 0.0;
  double et_max_ = 0.0;
};

/// Streaming CSV report: rows are appended to `path` in input order as a
/// sweep delivers them (feed SweepRunner's RowCallback into add_row), with
/// a flush after every row so a running sweep can be tailed. Completions
/// may arrive out of order; rows are buffered until their predecessors
/// are on disk, so the file is always a clean input-order prefix plus at
/// most one torn line if the process dies mid-write. An existing file
/// with this report's header is resumed: it keeps its complete data rows
/// (any torn tail and old summary trailer are truncated away) and add_row
/// skips the indices already on disk — rerunning the identical command
/// after an interruption yields a byte-identical final CSV.
class StreamingCsvReport {
 public:
  /// Opens `path`, scanning an existing file first (throws esched::Error
  /// when its header is complete but does not match the report schema; a
  /// file torn before even the header finished restarts fresh).
  /// `with_size_dist` selects the extended schema with size_dist columns;
  /// a streaming caller must pass what report_has_size_dists would say of
  /// the sweep's points (the CLI derives it from the loaded scenarios) so
  /// streamed files stay byte-identical to batch-written ones.
  explicit StreamingCsvReport(const std::string& path,
                              bool with_size_dist = false);

  /// Hands over the result of input index `index`; writes it (and any
  /// buffered successors) once all earlier rows are on disk. An index
  /// already emitted by a resumed file is not rewritten, but its
  /// recomputed row is checked against the kept one — resuming onto a
  /// CSV left by a *different* sweep throws instead of silently mixing
  /// rows, and nothing is appended until every resumed row has been
  /// verified (new rows buffer in the meantime), so a foreign file is
  /// never written to at all. Not thread-safe on its own — SweepRunner
  /// already serializes callback invocations.
  void add_row(std::size_t index, const RunPoint& point,
               const RunResult& result);

  /// Writes the summary trailer and flushes. Requires every index in
  /// [0, total) to have been delivered (or resumed); throws otherwise —
  /// a crashed sweep leaves the file trailer-less and resumable.
  void finish(std::size_t total);

  /// Complete data rows recovered from the pre-existing file.
  std::size_t rows_resumed() const { return resumed_; }
  /// Data rows on disk so far (resumed + newly streamed).
  std::size_t rows_emitted() const { return next_; }

 private:
  /// Truncates the resumed file to its clean prefix and opens it for
  /// appending; deferred to the first actual write so a resume that
  /// fails verification leaves the file bitwise untouched.
  void open_for_append();

  std::string path_;
  bool with_size_dist_ = false;
  // esched-lint: allow(raw-file-io): the --stream file is appended in
  // place so a running sweep can be tailed; the resume scan, not an
  // atomic publish, makes a torn tail recoverable.
  std::ofstream out_;
  CsvSummary summary_;
  std::size_t truncate_at_ = 0;  ///< clean-prefix byte length on resume
  bool opened_ = false;
  std::size_t next_ = 0;     ///< lowest index not yet on disk
  std::size_t resumed_ = 0;
  std::size_t verified_ = 0; ///< resumed rows re-checked so far
  bool finished_ = false;
  bool failed_ = false;      ///< a verification failed; refuse all writes
  std::map<std::size_t, std::vector<std::string>> pending_;
  /// FNV-1a of each resumed row's encoded text, for the add_row check.
  std::vector<std::uint64_t> resumed_hashes_;
};

/// Bookkeeping returned by merge_csv_reports.
struct MergeStats {
  std::size_t files = 0;
  std::size_t rows = 0;
};

/// `esched merge`: concatenates the data rows of `inputs` (in argument
/// order — shard order, for shard CSVs) under their common header and
/// recomputes the summary trailer from the merged rows, writing the
/// result to `out_path`. Inputs must share one header byte-for-byte
/// (header-only CSVs from empty shards are fine); their own summary
/// trailers are dropped. Merging shard CSVs of one sweep reproduces the
/// unsharded report exactly. Throws esched::Error on unreadable input,
/// header mismatch, or a malformed/truncated row.
MergeStats merge_csv_reports(const std::vector<std::string>& inputs,
                             const std::string& out_path);

/// `esched merge` for JSON reports (and `esched collect --json`):
/// concatenates the "points" arrays of {"points": [...], "stats": {...}}
/// documents in argument order — shard/chunk order — and recomputes the
/// stats block by summing the inputs' counters (total/solved points,
/// cache/disk hits, wall seconds; threads is the max), mirroring the CSV
/// merge invariant: merged points == the unsharded run's points,
/// value-for-value (numbers re-serialize in shortest round-trip form, so
/// byte identity is NOT promised — the CSV is the byte-exact artifact;
/// wall-clock stats are volatile either way). Every point object must
/// carry the same keys in the same order as the first input's first point
/// (the JSON "header"); inputs with zero points are fine. The stats block
/// is omitted when no input has one. Published atomically, so out_path
/// may name an input and a failed merge leaves no torn file.
/// Throws esched::Error on unreadable/unparseable input or key mismatch.
MergeStats merge_json_reports(const std::vector<std::string>& inputs,
                              const std::string& out_path);

/// One-line-per-completed-row progress printer for long sweeps: feed the
/// returned callback into SweepRunner::run (or compose it with a
/// streaming report's add_row). Each completed row prints
///   "row <offset+index+1>/<total> <solver> <policy> k=<k> rho=<rho> "
///   "et=<E[T]> (<solve s> s)"
/// to `os`, flushed per line so `esched run --progress` and the dist
/// workers share one tailable progress path. `offset` shifts the printed
/// index for callers running a slice of a larger sweep (shards, queue
/// chunks). The callback is invoked serialized by SweepRunner, so it
/// needs no locking of its own.
RowCallback progress_callback(std::size_t total, std::ostream& os,
                              std::size_t offset = 0);

/// Same rows as a JSON document: {"points": [...], "stats": {...}?}.
/// `with_size_dist` and the atomic publication as in write_csv_report.
void write_json_report(const std::string& path,
                       const std::vector<RunPoint>& points,
                       const std::vector<RunResult>& results,
                       const SweepStats* stats = nullptr,
                       std::optional<bool> with_size_dist = std::nullopt);

/// Prints the sweep to `os` as an aligned table (capped at `max_rows` data
/// rows, with an ellipsis note when truncated) followed by a stats line.
void print_sweep_summary(std::ostream& os, const std::vector<RunPoint>& points,
                         const std::vector<RunResult>& results,
                         const SweepStats& stats, std::size_t max_rows = 40);

/// The one-line run trailer ("points: ... | threads: ... | wall: ... s"),
/// including disk hits when a persistent cache served any. Shared by the
/// table view and the CLI's non-table renders so the two never drift.
void print_stats_line(std::ostream& os, const SweepStats& stats);

/// Renders `results` under the named view:
///   table      — generic aligned table + run stats (any scenario)
///   heatmap    — per-rho policy winner maps over the (mu_I, mu_E) grid
///   vs-mu      — per-rho E[T] tables along the mu_I axis (two policies)
///   vs-k       — per-mu_I panels of E[T] along the k axis (two policies)
///   family     — per-case policy-family E[T] + Thm. 5 optimality check
///   accuracy   — QBD vs exact vs simulation relative errors per case
///   tail       — per-class P50/P99 response-time percentiles per case
///   truncation — truncation-level ablation vs deep reference + QBD
///   fit-order  — busy-period fit-order ablation vs the exact chain
///   dominance  — Thm. 3 pointwise work-dominance violations and gaps
///   scv        — per-case E[T] along the size_dist axis (SCV robustness)
/// `max_rows` caps the table view's data rows. Every view prints only
/// deterministic values (no wall time, no cache provenance), so its text
/// is as reproducible as the CSV report.
/// Throws esched::Error when the scenario lacks the axes a view needs
/// (the message names the requirement) or the view name is unknown.
void print_view(const std::string& view, std::ostream& os,
                const Scenario& scenario, const std::vector<RunPoint>& points,
                const std::vector<RunResult>& results, const SweepStats& stats,
                std::size_t max_rows);

/// Names accepted by print_view (and the spec files' "view" key).
std::vector<std::string> report_view_names();

}  // namespace esched
