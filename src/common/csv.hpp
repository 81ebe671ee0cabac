// CSV writing and reading with RFC-4180 quoting, shared by the report
// layer (engine/report), the `esched merge` subcommand, and the per-figure
// bench harnesses. Fields containing a comma, double quote, or newline are
// quoted on write and unquoted on read, so a scenario or policy label can
// hold any text without corrupting row structure.
#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

namespace esched {

/// RFC-4180 encoding of one field: returned verbatim unless it contains a
/// comma, double quote, CR, or LF, in which case it is wrapped in double
/// quotes with embedded quotes doubled. Canonical: fields that need no
/// quoting are never quoted, so encode(decode(line)) == line for lines
/// this module produced.
std::string csv_encode_field(const std::string& field);

/// One record: encoded fields joined by commas (no trailing newline).
std::string csv_encode_row(const std::vector<std::string>& cells);

/// Parses the record starting at `*offset` in `text`, honoring quoting
/// (quoted fields may span commas and newlines), and advances `*offset`
/// past the record's terminating newline. Returns false when `*offset` is
/// already at the end of `text`; otherwise fills `cells` with the decoded
/// fields and sets `*complete` to whether the record ended in an
/// (unquoted) newline — a record cut short by EOF, e.g. the torn last
/// line of an interrupted streaming run, reads as incomplete. A lone
/// "\r\n" terminator is accepted and stripped.
bool csv_parse_record(const std::string& text, std::size_t* offset,
                      std::vector<std::string>* cells, bool* complete);

/// Writes rows of cells to a CSV file with RFC-4180 quoting.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws on failure.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Appends one data row; must match the header arity.
  void add_row(const std::vector<std::string>& cells);

  /// Number of data rows written so far.
  std::size_t num_rows() const { return num_rows_; }

 private:
  std::ofstream out_;
  std::size_t arity_;
  std::size_t num_rows_ = 0;
};

}  // namespace esched
