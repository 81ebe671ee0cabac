#include "engine/report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <sstream>

#include "common/appendf.hpp"
#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/numeric.hpp"
#include "common/table.hpp"
#include "core/exact_ctmc.hpp"
#include "stats/accumulator.hpp"

namespace esched {

namespace {

const std::vector<std::string>& report_header(bool with_size_dist) {
  // Every column is a deterministic function of the point and its solve —
  // wall time and cache provenance stay out on purpose, so shard merges
  // and streaming resumes compare byte-for-byte (they remain available in
  // RunResult and the JSON stats block). The size_dist columns exist only
  // in reports that actually sweep/set a non-exponential size, so every
  // pre-refactor report and golden keeps its exact schema.
  static const std::vector<std::string> header = {
      "k",           "rho",           "mu_i",          "mu_e",
      "elastic_cap", "lambda_i",      "lambda_e",      "policy",
      "solver",      "fit_order",     "imax",          "jmax",
      "et",          "et_i",          "et_e",          "en_i",
      "en_e",        "ci_halfwidth",  "boundary_mass", "num_states",
      "p50_i",       "p95_i",         "p99_i",         "p50_e",
      "p95_e",       "p99_e",         "dom_viol_w",    "dom_viol_wi",
      "dom_gap",     "dom_checkpoints",
      "iterations",  "residual"};
  static const std::vector<std::string> extended = [] {
    std::vector<std::string> h = header;
    h.push_back("size_dist_i");
    h.push_back("size_dist_e");
    return h;
  }();
  return with_size_dist ? extended : header;
}

std::vector<std::string> report_row(const RunPoint& point,
                                    const RunResult& result,
                                    bool with_size_dist) {
  const SystemParams& p = point.params;
  std::vector<std::string> row = {std::to_string(p.k),
          format_double(p.rho()),
          format_double(p.mu_i),
          format_double(p.mu_e),
          std::to_string(p.elastic_cap),
          format_double(p.lambda_i),
          format_double(p.lambda_e),
          point.policy,
          solver_name(point.solver),
          std::to_string(static_cast<int>(point.options.fit_order)),
          std::to_string(point.options.imax),
          std::to_string(point.options.jmax),
          format_double(result.mean_response_time, 12),
          format_double(result.mean_response_time_i, 12),
          format_double(result.mean_response_time_e, 12),
          format_double(result.mean_jobs_i, 12),
          format_double(result.mean_jobs_e, 12),
          format_double(result.ci_halfwidth),
          format_double(result.boundary_mass),
          std::to_string(result.num_states),
          format_double(result.p50_i, 12),
          format_double(result.p95_i, 12),
          format_double(result.p99_i, 12),
          format_double(result.p50_e, 12),
          format_double(result.p95_e, 12),
          format_double(result.p99_e, 12),
          format_double(result.dom_max_violation, 12),
          format_double(result.dom_max_violation_i, 12),
          format_double(result.dom_avg_gap, 12),
          std::to_string(result.dom_checkpoints),
          std::to_string(result.solver_iterations),
          format_double(result.solve_residual)};
  if (with_size_dist) {
    row.push_back(point.options.size_dist_i.canonical());
    row.push_back(point.options.size_dist_e.canonical());
  }
  return row;
}

/// True for the "# summary ..." trailer lines a report CSV ends with
/// (they parse as one comment cell, never as a data row).
bool is_summary_record(const std::vector<std::string>& cells) {
  return cells.size() == 1 && cells.front().rfind("# ", 0) == 0;
}

/// Appends one data row and folds it into the summary trailer: the one
/// row writer of batch, streamed, queue-chunk and merged CSVs, so their
/// bytes match by construction.
void write_csv_row(std::ostream& out, CsvSummary& summary,
                   const std::vector<std::string>& row) {
  out << csv_encode_row(row) << '\n';
  summary.add_row(row);
}

}  // namespace

bool report_has_size_dists(const std::vector<RunPoint>& points) {
  for (const RunPoint& point : points) {
    if (!point.options.size_dist_i.is_exponential() ||
        !point.options.size_dist_e.is_exponential()) {
      return true;
    }
  }
  return false;
}

CsvSummary::CsvSummary(const std::vector<std::string>& header) {
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "et") {
      et_column_ = static_cast<std::ptrdiff_t>(c);
      break;
    }
  }
}

void CsvSummary::add_row(const std::vector<std::string>& cells) {
  if (et_column_ >= 0) {
    // Parse the formatted cell, not the double it came from: the merge
    // path only has the text, and both paths must agree bitwise.
    const double et =
        std::strtod(cells[static_cast<std::size_t>(et_column_)].c_str(),
                    nullptr);
    if (rows_ == 0) {
      et_sum_ = et_min_ = et_max_ = et;
    } else {
      et_sum_ += et;
      et_min_ = std::min(et_min_, et);
      et_max_ = std::max(et_max_, et);
    }
  }
  ++rows_;
}

void CsvSummary::write(std::ostream& os) const {
  os << "# summary rows=" << rows_ << '\n';
  if (et_column_ >= 0 && rows_ > 0) {
    os << "# summary et_mean="
       << format_double(et_sum_ / static_cast<double>(rows_), 12)
       << " et_min=" << format_double(et_min_, 12)
       << " et_max=" << format_double(et_max_, 12) << '\n';
  }
}

void write_csv_report(const std::string& path,
                      const std::vector<RunPoint>& points,
                      const std::vector<RunResult>& results,
                      std::optional<bool> with_size_dist) {
  ESCHED_CHECK(points.size() == results.size(),
               "points/results size mismatch");
  const bool size_dists =
      with_size_dist.value_or(report_has_size_dists(points));
  atomic_write_file(path, [&](std::ostream& out) {
    const std::vector<std::string>& header = report_header(size_dists);
    CsvSummary summary(header);
    out << csv_encode_row(header) << '\n';
    for (std::size_t n = 0; n < points.size(); ++n) {
      write_csv_row(out, summary,
                    report_row(points[n], results[n], size_dists));
    }
    summary.write(out);
  });
}

StreamingCsvReport::StreamingCsvReport(const std::string& path,
                                       bool with_size_dist)
    : path_(path),
      with_size_dist_(with_size_dist),
      summary_(report_header(with_size_dist)) {
  const std::size_t arity = report_header(with_size_dist_).size();
  const std::string existing = read_file(path).value_or(std::string());
  if (!existing.empty()) {
    // Keep the longest clean prefix: the matching header plus every
    // complete, well-formed data row; stop at a torn line, a malformed
    // row, or the old summary trailer, and truncate the rest away. A
    // run killed before even the header's newline reached disk left no
    // rows worth keeping — restart fresh rather than error.
    std::size_t offset = 0;
    std::vector<std::string> cells;
    bool complete = false;
    const bool has_header =
        csv_parse_record(existing, &offset, &cells, &complete) && complete;
    if (has_header) {
      ESCHED_CHECK(cells == report_header(with_size_dist_),
                   "--stream resume: '" + path +
                       "' exists with a different header; refusing to "
                       "append (remove it or pick another --out)");
      std::size_t keep = offset;
      while (csv_parse_record(existing, &offset, &cells, &complete)) {
        if (!complete || is_summary_record(cells) || cells.size() != arity) {
          break;
        }
        summary_.add_row(cells);
        resumed_hashes_.push_back(fnv1a64(csv_encode_row(cells)));
        ++resumed_;
        keep = offset;
      }
      // Truncation of the torn tail / old trailer is deferred to the
      // first write (open_for_append): until the kept rows verify
      // against this sweep, the file stays bitwise untouched.
      truncate_at_ = keep;
      next_ = resumed_;
      return;
    }
  }
  out_.open(path, std::ios::trunc);
  ESCHED_CHECK(out_.good(), "failed to open CSV file: " + path);
  out_ << csv_encode_row(report_header(with_size_dist_)) << '\n'
       << std::flush;
  opened_ = true;
}

void StreamingCsvReport::open_for_append() {
  if (opened_) return;
  std::error_code ec;
  std::filesystem::resize_file(path_, truncate_at_, ec);
  ESCHED_CHECK(!ec, "--stream resume: cannot truncate '" + path_ +
                        "': " + ec.message());
  out_.open(path_, std::ios::app);
  ESCHED_CHECK(out_.good(), "failed to open CSV file: " + path_);
  opened_ = true;
}

void StreamingCsvReport::add_row(std::size_t index, const RunPoint& point,
                                 const RunResult& result) {
  ESCHED_CHECK(!finished_, "streaming report already finished");
  ESCHED_CHECK(!failed_, "streaming report in failed state (resumed rows "
                         "did not match this sweep)");
  if (index < resumed_) {
    // Already on disk from the resumed file. The schema header is
    // uniform across scenarios, so verify the kept row really is this
    // sweep's row for this index — resuming onto some other sweep's
    // --out must fail loudly, not mix two reports.
    if (fnv1a64(csv_encode_row(report_row(point, result, with_size_dist_))) !=
        resumed_hashes_[index]) {
      failed_ = true;
      throw Error("--stream resume: row " + std::to_string(index) + " in '" +
                  path_ +
                  "' does not match this sweep (was the file written by a "
                  "different scenario or command line?)");
    }
    ++verified_;
  } else {
    pending_.emplace(index, report_row(point, result, with_size_dist_));
  }
  // Hold all appends until every resumed row has been re-verified: a
  // foreign file must come through entirely untouched, however solve
  // completions interleave.
  if (verified_ < resumed_) return;
  while (!pending_.empty() && pending_.begin()->first == next_) {
    open_for_append();
    write_csv_row(out_, summary_, pending_.begin()->second);
    out_ << std::flush;
    pending_.erase(pending_.begin());
    ++next_;
  }
  ESCHED_CHECK(out_.good(), "error writing '" + path_ + "'");
}

void StreamingCsvReport::finish(std::size_t total) {
  ESCHED_CHECK(!finished_ && !failed_, "streaming report not completable");
  ESCHED_CHECK(pending_.empty() && next_ == total && verified_ == resumed_,
               "streaming report incomplete: " + std::to_string(next_) +
                   " of " + std::to_string(total) + " rows emitted");
  open_for_append();
  summary_.write(out_);
  out_ << std::flush;
  ESCHED_CHECK(out_.good(), "error writing '" + path_ + "'");
  finished_ = true;
}

MergeStats merge_csv_reports(const std::vector<std::string>& inputs,
                             const std::string& out_path) {
  ESCHED_CHECK(!inputs.empty(), "merge needs at least one input CSV");
  // Published atomically (common/atomic_file): a failed merge leaves no
  // torn file, `--out` may even name one of the inputs, and concurrent
  // merges racing on one --out each publish a complete file.
  MergeStats stats;
  atomic_write_file(out_path, [&](std::ostream& out) {
    std::vector<std::string> header;
    CsvSummary summary({});
    for (const std::string& input : inputs) {
      const std::optional<std::string> text = read_file(input);
      ESCHED_CHECK(text.has_value(), "cannot read '" + input + "'");
      std::size_t offset = 0;
      std::vector<std::string> cells;
      bool complete = false;
      ESCHED_CHECK(csv_parse_record(*text, &offset, &cells, &complete) &&
                       complete && !cells.empty(),
                   "'" + input + "' has no CSV header");
      if (header.empty()) {
        header = cells;
        summary = CsvSummary(header);
        out << csv_encode_row(header) << '\n';
      } else {
        ESCHED_CHECK(cells == header,
                     "'" + input + "' has a different header than '" +
                         inputs.front() + "'; refusing to merge");
      }
      while (csv_parse_record(*text, &offset, &cells, &complete)) {
        if (is_summary_record(cells)) continue;  // recomputed below
        ESCHED_CHECK(complete, "'" + input + "' ends in a truncated row");
        ESCHED_CHECK(cells.size() == header.size(),
                     "'" + input + "' has a row with " +
                         std::to_string(cells.size()) +
                         " fields (header has " +
                         std::to_string(header.size()) + ")");
        write_csv_row(out, summary, cells);
        ++stats.rows;
      }
      ++stats.files;
    }
    summary.write(out);
  });
  return stats;
}

MergeStats merge_json_reports(const std::vector<std::string>& inputs,
                              const std::string& out_path) {
  ESCHED_CHECK(!inputs.empty(), "merge needs at least one input JSON report");
  // Accumulate everything in memory first (reports are rows of numbers; a
  // million-point sweep is tens of MB), then publish atomically so a
  // failed merge leaves no torn file and --out may name an input.
  std::vector<std::string> point_lines;
  std::vector<std::string> keys;  // the point-object "header"
  std::string keys_source;        // which input defined it (may not be the
                                  // first: zero-point inputs are skipped)
  bool have_keys = false;
  bool any_stats = false;
  double total_points = 0, solved_points = 0, cache_hits = 0, disk_hits = 0;
  double threads = 0, wall_seconds = 0, solve_seconds = 0;
  MergeStats stats;
  for (const std::string& input : inputs) {
    const std::optional<std::string> text = read_file(input);
    ESCHED_CHECK(text.has_value(), "cannot read '" + input + "'");
    const JsonValue root = parse_json(*text, input);
    const JsonValue* points = root.find("points");
    ESCHED_CHECK(points != nullptr && points->is_array(),
                 "'" + input +
                     "' is not a JSON report (expected a \"points\" array)");
    const auto& items = points->as_array(input + ": points");
    for (std::size_t n = 0; n < items.size(); ++n) {
      const std::string where =
          input + ": points[" + std::to_string(n) + "]";
      const auto& members = items[n].as_object(where);
      std::vector<std::string> item_keys;
      item_keys.reserve(members.size());
      std::string line = "    {";
      for (const auto& [key, value] : members) {
        if (item_keys.size() > 0) line += ", ";
        item_keys.push_back(key);
        line += JsonValue::make_string(key).dump() + ": " + value.dump();
      }
      line += "}";
      if (!have_keys) {
        keys = std::move(item_keys);
        keys_source = input;
        have_keys = true;
      } else {
        // The schema check mirroring the CSV header comparison: every
        // point of every input must carry the same columns in the same
        // order, or the merged document would silently mix schemas.
        ESCHED_CHECK(item_keys == keys,
                     where + " has different fields than '" + keys_source +
                         "'s first point; refusing to merge");
      }
      point_lines.push_back(std::move(line));
      ++stats.rows;
    }
    if (const JsonValue* s = root.find("stats")) {
      const std::string where = input + ": stats";
      any_stats = true;
      const auto add = [&](const char* key, double& sum) {
        if (const JsonValue* v = s->find(key)) {
          sum += v->as_number(where + "." + key);
        }
      };
      add("total_points", total_points);
      add("solved_points", solved_points);
      add("cache_hits", cache_hits);
      add("disk_hits", disk_hits);
      add("wall_seconds", wall_seconds);
      add("solve_seconds", solve_seconds);
      if (const JsonValue* v = s->find("threads")) {
        threads = std::max(threads, v->as_number(where + ".threads"));
      }
    }
    ++stats.files;
  }

  // Published atomically, as the CSV merge: concurrent merges racing on
  // one --out each publish a complete file.
  atomic_write_file(out_path, [&](std::ostream& out) {
    out << "{\n  \"points\": [\n";
    for (std::size_t n = 0; n < point_lines.size(); ++n) {
      out << point_lines[n] << (n + 1 < point_lines.size() ? "," : "")
          << '\n';
    }
    out << "  ]";
    if (any_stats) {
      out << ",\n  \"stats\": {\"total_points\": "
          << static_cast<long long>(total_points)
          << ", \"solved_points\": " << static_cast<long long>(solved_points)
          << ", \"cache_hits\": " << static_cast<long long>(cache_hits)
          << ", \"disk_hits\": " << static_cast<long long>(disk_hits)
          << ", \"threads\": " << static_cast<long long>(threads)
          << ", \"wall_seconds\": " << format_double(wall_seconds)
          << ", \"solve_seconds\": " << format_double(solve_seconds) << "}";
    }
    out << "\n}\n";
  });
  return stats;
}

RowCallback progress_callback(std::size_t total, std::ostream& os,
                              std::size_t offset) {
  // `os` is captured by reference: the callers (the CLI, dist workers)
  // hand in std::cerr or a stream they outlive the sweep with.
  return [total, offset, &os](std::size_t index, const RunPoint& point,
                              const RunResult& result) {
    // Assemble the whole line first and write it with ONE stream
    // insertion: `os` is usually std::cerr shared with other threads and
    // processes (dist workers), and a multi-insertion sequence can
    // interleave into torn lines. One insertion of a complete
    // newline-terminated string keeps lines atomic in practice.
    std::ostringstream line;
    line << "row " << (offset + index + 1) << "/" << total << " "
         << solver_name(point.solver) << " " << point.policy
         << " k=" << point.params.k
         << " rho=" << format_double(point.params.rho())
         << " et=" << format_double(result.mean_response_time) << " ("
         << format_double(result.solve_seconds, 3) << " s)\n";
    os << line.str();
    os.flush();
  };
}

void write_json_report(const std::string& path,
                       const std::vector<RunPoint>& points,
                       const std::vector<RunResult>& results,
                       const SweepStats* stats,
                       std::optional<bool> with_size_dist_opt) {
  ESCHED_CHECK(points.size() == results.size(),
               "points/results size mismatch");
  const bool with_size_dist =
      with_size_dist_opt.value_or(report_has_size_dists(points));
  atomic_write_file(path, [&](std::ostream& out) {
    const auto& header = report_header(with_size_dist);
    out << "{\n  \"points\": [\n";
    for (std::size_t n = 0; n < points.size(); ++n) {
      const auto row = report_row(points[n], results[n], with_size_dist);
      out << "    {";
      for (std::size_t c = 0; c < header.size(); ++c) {
        if (c > 0) out << ", ";
        // Only the policy/solver/size-dist columns are strings; everything
        // else is emitted numerically (format_double never produces
        // non-JSON text).
        const bool quoted = header[c] == "policy" || header[c] == "solver" ||
                            header[c] == "size_dist_i" ||
                            header[c] == "size_dist_e";
        out << '"' << header[c] << "\": ";
        if (quoted) out << '"' << row[c] << '"';
        else out << row[c];
      }
      out << '}' << (n + 1 < points.size() ? "," : "") << '\n';
    }
    out << "  ]";
    if (stats != nullptr) {
      out << ",\n  \"stats\": {\"total_points\": " << stats->total_points
          << ", \"solved_points\": " << stats->solved_points
          << ", \"cache_hits\": " << stats->cache_hits
          << ", \"disk_hits\": " << stats->disk_hits
          << ", \"threads\": " << stats->threads_used
          << ", \"wall_seconds\": " << format_double(stats->wall_seconds)
          << ", \"solve_seconds\": "
          << format_double(stats->solve_seconds_total) << "}";
    }
    out << "\n}\n";
  });
}

void print_sweep_summary(std::ostream& os, const std::vector<RunPoint>& points,
                         const std::vector<RunResult>& results,
                         const SweepStats& stats, std::size_t max_rows) {
  ESCHED_CHECK(points.size() == results.size(),
               "points/results size mismatch");
  Table table({"k", "rho", "mu_i", "mu_e", "policy", "solver", "E[T]",
               "E[T]_I", "E[T]_E"});
  const std::size_t shown = std::min(points.size(), max_rows);
  for (std::size_t n = 0; n < shown; ++n) {
    const SystemParams& p = points[n].params;
    table.add_row({std::to_string(p.k), format_double(p.rho()),
                   format_double(p.mu_i), format_double(p.mu_e),
                   points[n].policy, solver_name(points[n].solver),
                   format_double(results[n].mean_response_time),
                   format_double(results[n].mean_response_time_i),
                   format_double(results[n].mean_response_time_e)});
  }
  table.print(os);
  if (shown < points.size()) {
    os << "... (" << points.size() - shown << " more rows; see CSV/JSON)\n";
  }
  print_stats_line(os, stats);
}

void print_stats_line(std::ostream& os, const SweepStats& stats) {
  os << "points: " << stats.total_points << " (solved " << stats.solved_points
     << ", cache hits " << stats.cache_hits;
  if (stats.disk_hits > 0) os << ", disk hits " << stats.disk_hits;
  os << ") | threads: " << stats.threads_used
     << " | wall: " << format_double(stats.wall_seconds) << " s\n";
}

// ---------------------------------------------------------------------------
// Named views. Each renders one classic report layout from engine results.
// They print no wall time and no cache provenance, so a view's text is
// pinned by the tests/golden/<builtin>.txt files like the CSV beside it.

namespace {

/// Row-major shape of an expanded scenario: (cells, truncation, fit,
/// size_dist, policy, solver), mirroring Scenario::expand.
struct GridShape {
  std::size_t ncells = 0;
  std::size_t ntrunc = 1;
  std::size_t nfit = 1;
  std::size_t ndist = 1;
  std::size_t npol = 1;
  std::size_t nsol = 1;

  std::size_t at(std::size_t cell, std::size_t trunc, std::size_t fit,
                 std::size_t dist, std::size_t pol, std::size_t sol) const {
    return ((((cell * ntrunc + trunc) * nfit + fit) * ndist + dist) * npol +
            pol) *
               nsol +
           sol;
  }
};

GridShape shape_of(const Scenario& s) {
  GridShape shape;
  shape.ncells = s.cases.empty()
                     ? s.k_values.size() * s.rho_values.size() *
                           s.mu_i_values.size() * s.mu_e_values.size() *
                           s.elastic_caps.size()
                     : s.cases.size();
  shape.ntrunc = s.trunc_values.empty() ? 1 : s.trunc_values.size();
  shape.nfit = s.fit_orders.empty() ? 1 : s.fit_orders.size();
  shape.ndist = s.size_dists.empty() ? 1 : s.size_dists.size();
  shape.npol = s.policies.size();
  shape.nsol = s.solvers.size();
  return shape;
}

void check_view_inputs(const char* view, const Scenario& scenario,
                       const std::vector<RunPoint>& points,
                       const std::vector<RunResult>& results) {
  ESCHED_CHECK(points.size() == results.size(),
               "points/results size mismatch");
  ESCHED_CHECK(points.size() == scenario.num_points(),
               std::string("view '") + view +
                   "': results do not cover the full scenario grid (did you "
                   "shard? sharded runs support only the 'table' view)");
}

void require(bool condition, const char* view, const std::string& what) {
  ESCHED_CHECK(condition,
               std::string("view '") + view + "' needs " + what);
}

std::size_t solver_index(const Scenario& scenario, SolverKind kind,
                         const char* view) {
  for (std::size_t n = 0; n < scenario.solvers.size(); ++n) {
    if (scenario.solvers[n] == kind) return n;
  }
  throw Error(std::string("view '") + view + "' needs solver '" +
              solver_name(kind) + "' on the scenario's solver axis");
}

// --- heatmap: per-rho winner maps over the (mu_I, mu_E) grid -------------

void print_heatmap_view(std::ostream& os, const Scenario& s,
                        const std::vector<RunResult>& results) {
  const char* view = "heatmap";
  require(s.cases.empty(), view, "an axes-based scenario (rho/mu grids)");
  require(s.k_values.size() == 1 && s.elastic_caps.size() == 1, view,
          "single k and elastic_cap values");
  require(s.mu_i_values == s.mu_e_values, view,
          "identical mu_i and mu_e grids");
  require(s.policies.size() == 2, view, "exactly two policies");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1 &&
              shape.ndist == 1,
          view, "a single solver and no truncation/fit/size_dist axes");

  const auto& grid = s.mu_i_values;
  const std::size_t nmu = grid.size();
  const int k = s.k_values.front();
  const std::string& pol0 = s.policies[0];
  const std::string& pol1 = s.policies[1];
  const auto result_at = [&](std::size_t r, std::size_t a, std::size_t b,
                             std::size_t policy) -> const RunResult& {
    return results[shape.at((r * nmu + a) * nmu + b, 0, 0, 0, policy, 0)];
  };

  for (std::size_t r = 0; r < s.rho_values.size(); ++r) {
    const double rho = s.rho_values[r];
    appendf(os,
            "\nrho = %.1f, k = %d (rows mu_E top-down, cols mu_I "
            "left-right; %c = %s wins, %c = %s wins)\n",
            rho, k, pol0[0], pol0.c_str(), pol1[0], pol1.c_str());
    appendf(os, "%7s", "mu_E\\I");
    for (const double mu_i : grid) appendf(os, "%5.2f", mu_i);
    appendf(os, "\n");

    int first_wins = 0;
    int second_wins = 0;
    int first_wins_upper = 0;  // mu_I >= mu_E (Theorem 5 region)
    int points_upper = 0;
    for (std::size_t b = nmu; b-- > 0;) {
      const double mu_e = grid[b];
      appendf(os, "%6.2f ", mu_e);
      for (std::size_t a = 0; a < nmu; ++a) {
        const double mu_i = grid[a];
        const double et0 = result_at(r, a, b, 0).mean_response_time;
        const double et1 = result_at(r, a, b, 1).mean_response_time;
        const bool first_better = et0 <= et1;
        (first_better ? first_wins : second_wins)++;
        if (mu_i >= mu_e - 1e-9) {
          ++points_upper;
          if (first_better) ++first_wins_upper;
        }
        appendf(os, "%5c", first_better ? pol0[0] : pol1[0]);
      }
      appendf(os, "\n");
    }
    appendf(os,
            "summary: %s wins %d points, %s wins %d points; "
            "%s wins %d/%d points with mu_I >= mu_E (paper: all)\n",
            pol0.c_str(), first_wins, pol1.c_str(), second_wins,
            pol0.c_str(), first_wins_upper, points_upper);
  }
}

// --- vs-mu: per-rho E[T] tables along the mu_I axis ----------------------

void print_vs_mu_view(std::ostream& os, const Scenario& s,
                      const std::vector<RunResult>& results) {
  const char* view = "vs-mu";
  require(s.cases.empty(), view, "an axes-based scenario (rho/mu_i axes)");
  require(s.k_values.size() == 1 && s.mu_e_values.size() == 1 &&
              s.elastic_caps.size() == 1,
          view, "single k, mu_e, and elastic_cap values");
  require(s.policies.size() == 2, view, "exactly two policies");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1 &&
              shape.ndist == 1,
          view, "a single solver and no truncation/fit/size_dist axes");

  const std::string& pol0 = s.policies[0];
  const std::string& pol1 = s.policies[1];
  const std::size_t nmu = s.mu_i_values.size();
  for (std::size_t r = 0; r < s.rho_values.size(); ++r) {
    Table table({"mu_I", "E[T] " + pol0, "E[T] " + pol1, "winner"});
    for (std::size_t m = 0; m < nmu; ++m) {
      const double et0 =
          results[shape.at(r * nmu + m, 0, 0, 0, 0, 0)].mean_response_time;
      const double et1 =
          results[shape.at(r * nmu + m, 0, 0, 0, 1, 0)].mean_response_time;
      table.add_row({format_double(s.mu_i_values[m]), format_double(et0),
                     format_double(et1), et0 <= et1 ? pol0 : pol1});
    }
    appendf(os, "\n--- rho = %.1f ---\n", s.rho_values[r]);
    table.print(os);
  }
}

// --- vs-k: per-mu_I panels of E[T] along the k axis ----------------------

void print_vs_k_view(std::ostream& os, const Scenario& s,
                     const std::vector<RunResult>& results) {
  const char* view = "vs-k";
  require(s.cases.empty(), view, "an axes-based scenario (k axis)");
  require(s.rho_values.size() == 1 && s.mu_e_values.size() == 1 &&
              s.elastic_caps.size() == 1,
          view, "single rho, mu_e, and elastic_cap values");
  require(s.policies.size() == 2, view, "exactly two policies");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1 &&
              shape.ndist == 1,
          view, "a single solver and no truncation/fit/size_dist axes");

  const std::string& pol0 = s.policies[0];
  const std::string& pol1 = s.policies[1];
  const std::size_t nmu = s.mu_i_values.size();
  for (std::size_t panel = 0; panel < nmu; ++panel) {
    Table table({"k", "E[T] " + pol0, "E[T] " + pol1,
                 "gap " + pol1 + "-" + pol0});
    for (std::size_t n = 0; n < s.k_values.size(); ++n) {
      const double et0 =
          results[shape.at(n * nmu + panel, 0, 0, 0, 0, 0)].mean_response_time;
      const double et1 =
          results[shape.at(n * nmu + panel, 0, 0, 0, 1, 0)].mean_response_time;
      table.add_row({std::to_string(s.k_values[n]), format_double(et0),
                     format_double(et1), format_double(et1 - et0)});
    }
    appendf(os, "\n--- mu_I = %s, mu_E = %s ---\n",
            format_double(s.mu_i_values[panel]).c_str(),
            format_double(s.mu_e_values.front()).c_str());
    table.print(os);
  }
}

// --- family: per-case policy-family E[T] + Thm. 5 check ------------------

void print_family_view(std::ostream& os, const Scenario& s,
                       const std::vector<RunResult>& results) {
  const char* view = "family";
  require(!s.cases.empty(), view, "a cases-based scenario");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1 &&
              shape.ndist == 1,
          view, "a single solver and no truncation/fit/size_dist axes");

  std::vector<std::string> header = {"mu_I", "mu_E", "rho"};
  for (const auto& policy : s.policies) header.push_back("E[T] " + policy);
  header.push_back("best");
  header.push_back(s.policies[0] + " optimal?");
  Table table(std::move(header));

  int theorem5_checks = 0;
  int theorem5_holds = 0;
  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const CaseSpec& setting = s.cases[c];
    std::vector<double> et;
    et.reserve(shape.npol);
    for (std::size_t p = 0; p < shape.npol; ++p) {
      et.push_back(results[shape.at(c, 0, 0, 0, p, 0)].mean_response_time);
    }
    std::size_t best = 0;
    for (std::size_t n = 1; n < et.size(); ++n) {
      if (et[n] < et[best]) best = n;
    }
    const bool diagonal_or_above = setting.mu_i >= setting.mu_e;
    const bool first_optimal = et[0] <= et[best] * (1.0 + 1e-9);
    if (diagonal_or_above) {
      ++theorem5_checks;
      if (first_optimal) ++theorem5_holds;
    }
    std::vector<std::string> row = {format_double(setting.mu_i),
                                    format_double(setting.mu_e),
                                    format_double(setting.rho)};
    for (const double value : et) row.push_back(format_double(value));
    row.push_back(s.policies[best]);
    row.push_back(first_optimal ? "yes" : "no");
    table.add_row(std::move(row));
  }
  table.print(os);
  appendf(os,
          "\nTheorem 5 (mu_I >= mu_E => %s optimal in family): %d/%d "
          "settings hold.\n",
          s.policies[0].c_str(), theorem5_holds, theorem5_checks);
}

// --- accuracy: QBD vs exact vs simulation per case -----------------------

void print_accuracy_view(std::ostream& os, const Scenario& s,
                         const std::vector<RunResult>& results) {
  const char* view = "accuracy";
  require(!s.cases.empty(), view, "a cases-based scenario");
  const GridShape shape = shape_of(s);
  require(shape.ntrunc == 1 && shape.nfit == 1 && shape.ndist == 1, view,
          "no truncation/fit/size_dist axes");
  const std::size_t qbd = solver_index(s, SolverKind::kQbdAnalysis, view);
  const std::size_t exact = solver_index(s, SolverKind::kExactCtmc, view);
  const std::size_t sim = solver_index(s, SolverKind::kSimulation, view);

  Table table({"k", "mu_I", "mu_E", "rho", "policy", "QBD E[T]",
               "exact E[T]", "sim E[T]", "err vs exact", "err vs sim"});
  double worst_exact_err = 0.0;
  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const CaseSpec& setting = s.cases[c];
    for (std::size_t p = 0; p < shape.npol; ++p) {
      const double et_qbd =
          results[shape.at(c, 0, 0, 0, p, qbd)].mean_response_time;
      const double et_exact =
          results[shape.at(c, 0, 0, 0, p, exact)].mean_response_time;
      const double et_sim =
          results[shape.at(c, 0, 0, 0, p, sim)].mean_response_time;
      const double err_exact = relative_error(et_qbd, et_exact);
      const double err_sim = relative_error(et_qbd, et_sim);
      worst_exact_err = std::max(worst_exact_err, err_exact);
      table.add_row({std::to_string(setting.k), format_double(setting.mu_i),
                     format_double(setting.mu_e), format_double(setting.rho),
                     s.policies[p], format_double(et_qbd),
                     format_double(et_exact), format_double(et_sim),
                     format_double(100.0 * err_exact, 3) + "%",
                     format_double(100.0 * err_sim, 3) + "%"});
    }
  }
  table.print(os);
  appendf(os,
          "\nworst QBD-vs-exact error: %.3f%% (paper: <1%%; errors vs "
          "simulation include Monte Carlo noise)\n",
          100.0 * worst_exact_err);
}

// --- tail: per-class response-time percentiles per case ------------------

void print_tail_view(std::ostream& os, const Scenario& s,
                     const std::vector<RunResult>& results) {
  const char* view = "tail";
  require(!s.cases.empty(), view, "a cases-based scenario");
  require(s.options.sim_tails, view,
          "options.sim_tails = true (tail percentiles)");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1 &&
              shape.ndist == 1,
          view, "a single (sim) solver and no truncation/fit/size_dist axes");

  Table table({"mu_I", "rho", "policy", "mean E[T]", "inel P50", "inel P99",
               "el P50", "el P99"});
  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const CaseSpec& setting = s.cases[c];
    for (std::size_t p = 0; p < shape.npol; ++p) {
      const RunResult& r = results[shape.at(c, 0, 0, 0, p, 0)];
      table.add_row({format_double(setting.mu_i), format_double(setting.rho),
                     make_policy(s.policies[p])->name(),
                     format_double(r.mean_response_time, 4),
                     format_double(r.p50_i, 4), format_double(r.p99_i, 4),
                     format_double(r.p50_e, 4), format_double(r.p99_e, 4)});
    }
  }
  table.print(os);
}

// --- truncation: exact-solver truncation ablation ------------------------

void print_truncation_view(std::ostream& os, const Scenario& s,
                           const std::vector<RunResult>& results) {
  const char* view = "truncation";
  require(!s.cases.empty(), view, "a cases-based scenario");
  require(s.trunc_values.size() >= 2, view,
          "a truncation axis with at least two levels (last = reference)");
  require(s.policies.size() == 1, view, "a single policy");
  const GridShape shape = shape_of(s);
  require(shape.nfit == 1 && shape.ndist == 1, view,
          "no fit/size_dist axes");
  const std::size_t exact = solver_index(s, SolverKind::kExactCtmc, view);
  const std::size_t qbd = solver_index(s, SolverKind::kQbdAnalysis, view);
  const std::size_t last = s.trunc_values.size() - 1;

  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const double rho = s.cases[c].rho;
    const double reference =
        results[shape.at(c, last, 0, 0, 0, exact)].mean_response_time;
    const double et_qbd =
        results[shape.at(c, 0, 0, 0, 0, qbd)].mean_response_time;
    Table table({"truncation", "states", "E[T]", "rel err", "boundary mass"});
    for (std::size_t t = 0; t < last; ++t) {
      const RunResult& r = results[shape.at(c, t, 0, 0, 0, exact)];
      table.add_row(
          {std::to_string(s.trunc_values[t]), std::to_string(r.num_states),
           format_double(r.mean_response_time),
           format_double(relative_error(r.mean_response_time, reference), 3),
           format_double(r.boundary_mass, 3)});
    }
    appendf(os,
            "\n--- rho = %.1f (reference E[T] = %.6f at truncation %ld; "
            "suggested_truncation = %ld; QBD analysis = %.6f, err "
            "%.4f%%, ~0.1 ms) ---\n",
            rho, reference, s.trunc_values[last],
            suggested_truncation(rho, 1e-10), et_qbd,
            100.0 * relative_error(et_qbd, reference));
    table.print(os);
  }
}

// --- fit-order: busy-period moment-matching ablation ---------------------

void print_fit_order_view(std::ostream& os, const Scenario& s,
                          const std::vector<RunResult>& results) {
  const char* view = "fit-order";
  require(!s.cases.empty(), view, "a cases-based scenario");
  require(s.fit_orders == std::vector<int>({1, 2, 3}), view,
          "the fit_order axis [1, 2, 3]");
  const GridShape shape = shape_of(s);
  require(shape.ntrunc == 1 && shape.ndist == 1, view,
          "no truncation/size_dist axes");
  const std::size_t qbd = solver_index(s, SolverKind::kQbdAnalysis, view);
  const std::size_t exact = solver_index(s, SolverKind::kExactCtmc, view);

  Table table({"k", "mu_I", "mu_E", "rho", "policy", "err 1-moment",
               "err 2-moment", "err 3-moment"});
  Accumulator err1_acc, err2_acc, err3_acc;
  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const CaseSpec& setting = s.cases[c];
    for (std::size_t p = 0; p < shape.npol; ++p) {
      // The exact chain ignores the fit order (one shared solve under the
      // canonical cache key); read it from the first fit cell.
      const double et_exact =
          results[shape.at(c, 0, 0, 0, p, exact)].mean_response_time;
      const double e1 = relative_error(
          results[shape.at(c, 0, 0, 0, p, qbd)].mean_response_time, et_exact);
      const double e2 = relative_error(
          results[shape.at(c, 0, 1, 0, p, qbd)].mean_response_time, et_exact);
      const double e3 = relative_error(
          results[shape.at(c, 0, 2, 0, p, qbd)].mean_response_time, et_exact);
      err1_acc.add(e1);
      err2_acc.add(e2);
      err3_acc.add(e3);
      table.add_row({std::to_string(setting.k), format_double(setting.mu_i),
                     format_double(setting.mu_e), format_double(setting.rho),
                     s.policies[p], format_double(100.0 * e1, 3) + "%",
                     format_double(100.0 * e2, 3) + "%",
                     format_double(100.0 * e3, 3) + "%"});
    }
  }
  table.print(os);
  appendf(os,
          "\nmean error: 1-moment %.3f%%, 2-moment %.3f%%, 3-moment "
          "%.4f%% — each extra busy-period moment buys roughly an "
          "order of magnitude, which is why §5.2 matches three.\n",
          100.0 * err1_acc.mean(), 100.0 * err2_acc.mean(),
          100.0 * err3_acc.mean());
}

// --- dominance: Thm. 3 pointwise work-dominance check --------------------

void print_dominance_view(std::ostream& os, const Scenario& s,
                          const std::vector<RunResult>& results) {
  const char* view = "dominance";
  require(!s.cases.empty(), view, "a cases-based scenario");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1 &&
              shape.ndist == 1,
          view, "a single (trace) solver and no truncation/fit/size_dist axes");
  require(s.solvers.front() == SolverKind::kTraceDominance, view,
          "the 'trace' solver");

  Table table({"mu_I", "mu_E", "rho", "policy", "max W viol", "max W_I viol",
               "avg W gap", "checkpoints"});
  double worst_violation = 0.0;
  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const CaseSpec& setting = s.cases[c];
    for (std::size_t p = 0; p < shape.npol; ++p) {
      const RunResult& r = results[shape.at(c, 0, 0, 0, p, 0)];
      worst_violation = std::max(
          {worst_violation, r.dom_max_violation, r.dom_max_violation_i});
      table.add_row({format_double(setting.mu_i), format_double(setting.mu_e),
                     format_double(setting.rho),
                     make_policy(s.policies[p])->name(),
                     format_double(r.dom_max_violation, 3),
                     format_double(r.dom_max_violation_i, 3),
                     format_double(r.dom_avg_gap),
                     std::to_string(r.dom_checkpoints)});
    }
  }
  table.print(os);
  appendf(os,
          "\nworst pointwise violation over all runs: %.3g "
          "(theory: exactly 0; float error only)\n",
          worst_violation);
  appendf(os, "avg W gap >= 0 everywhere: IF keeps the least work in "
              "system, as Theorem 3 proves.\n");
}

// --- scv: size-distribution (SCV) robustness sweep -----------------------

void print_scv_view(std::ostream& os, const Scenario& s,
                    const std::vector<RunResult>& results) {
  const char* view = "scv";
  require(!s.cases.empty(), view, "a cases-based scenario");
  require(!s.size_dists.empty(), view,
          "a size_dist axis (the SCV sweep dimension)");
  const GridShape shape = shape_of(s);
  require(shape.nsol == 1 && shape.ntrunc == 1 && shape.nfit == 1, view,
          "a single solver and no truncation/fit axes");

  std::size_t stable_cases = 0;
  for (std::size_t c = 0; c < s.cases.size(); ++c) {
    const CaseSpec& setting = s.cases[c];
    std::vector<std::string> header = {"size_dist", "SCV"};
    for (const auto& policy : s.policies) header.push_back("E[T] " + policy);
    header.push_back("winner");
    Table table(std::move(header));
    std::size_t first_winner = 0;
    bool winner_stable = true;
    for (std::size_t d = 0; d < shape.ndist; ++d) {
      std::vector<double> et;
      et.reserve(shape.npol);
      for (std::size_t p = 0; p < shape.npol; ++p) {
        et.push_back(
            results[shape.at(c, 0, 0, d, p, 0)].mean_response_time);
      }
      std::size_t best = 0;
      for (std::size_t p = 1; p < et.size(); ++p) {
        if (et[p] < et[best]) best = p;
      }
      if (d == 0) first_winner = best;
      if (best != first_winner) winner_stable = false;
      std::vector<std::string> row = {
          s.size_dists[d].canonical(),
          format_double(s.size_dists[d].scv(), 4)};
      for (const double value : et) row.push_back(format_double(value));
      row.push_back(s.policies[best]);
      table.add_row(std::move(row));
    }
    if (winner_stable) ++stable_cases;
    appendf(os, "\n--- k = %d, mu_I = %s, mu_E = %s, rho = %s ---\n",
            setting.k, format_double(setting.mu_i).c_str(),
            format_double(setting.mu_e).c_str(),
            format_double(setting.rho).c_str());
    table.print(os);
  }
  appendf(os,
          "\nwinner stable across the SCV axis in %zu/%zu settings — where "
          "it is, the paper's Exp(mu) policy conclusions carry over to "
          "that size distribution family.\n",
          stable_cases, s.cases.size());
}

}  // namespace

void print_view(const std::string& view, std::ostream& os,
                const Scenario& scenario, const std::vector<RunPoint>& points,
                const std::vector<RunResult>& results, const SweepStats& stats,
                std::size_t max_rows) {
  if (view == "table") {
    ESCHED_CHECK(points.size() == results.size(),
                 "points/results size mismatch");
    print_sweep_summary(os, points, results, stats, max_rows);
    return;
  }
  check_view_inputs(view.c_str(), scenario, points, results);
  if (view == "heatmap") return print_heatmap_view(os, scenario, results);
  if (view == "vs-mu") return print_vs_mu_view(os, scenario, results);
  if (view == "vs-k") return print_vs_k_view(os, scenario, results);
  if (view == "family") return print_family_view(os, scenario, results);
  if (view == "accuracy") return print_accuracy_view(os, scenario, results);
  if (view == "tail") return print_tail_view(os, scenario, results);
  if (view == "truncation") return print_truncation_view(os, scenario, results);
  if (view == "fit-order") return print_fit_order_view(os, scenario, results);
  if (view == "dominance") return print_dominance_view(os, scenario, results);
  if (view == "scv") return print_scv_view(os, scenario, results);
  std::string all;
  for (const auto& name : report_view_names()) {
    if (!all.empty()) all += ", ";
    all += name;
  }
  throw Error("unknown report view '" + view + "' (expected one of: " + all +
              ")");
}

std::vector<std::string> report_view_names() {
  return {"table",  "heatmap",    "vs-mu",     "vs-k",      "family",
          "accuracy", "tail", "truncation", "fit-order", "dominance",
          "scv"};
}

}  // namespace esched
