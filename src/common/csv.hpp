// CSV encoding and parsing with RFC-4180 quoting, shared by the report
// layer (engine/report), the `esched merge` subcommand, and the bench
// studies. Fields containing a comma, double quote, or newline are
// quoted on write and unquoted on read, so a scenario or policy label can
// hold any text without corrupting row structure.
#pragma once

#include <cstddef>
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

}  // namespace esched
