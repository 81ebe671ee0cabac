#include "common/csv.hpp"

namespace esched {

std::string csv_encode_field(const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string::npos;
  if (!needs_quoting) return field;
  std::string encoded;
  encoded.reserve(field.size() + 2);
  encoded.push_back('"');
  for (const char c : field) {
    if (c == '"') encoded.push_back('"');
    encoded.push_back(c);
  }
  encoded.push_back('"');
  return encoded;
}

std::string csv_encode_row(const std::vector<std::string>& cells) {
  std::string row;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) row.push_back(',');
    row += csv_encode_field(cells[c]);
  }
  return row;
}

bool csv_parse_record(const std::string& text, std::size_t* offset,
                      std::vector<std::string>* cells, bool* complete) {
  cells->clear();
  *complete = false;
  std::size_t i = *offset;
  if (i >= text.size()) return false;
  std::string cell;
  bool in_quotes = false;
  bool cell_quoted = false;  // this cell began with an opening quote
  const auto finish_cell = [&] {
    cells->push_back(cell);
    cell.clear();
    cell_quoted = false;
  };
  while (i < text.size()) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      cell.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && cell.empty() && !cell_quoted) {
      in_quotes = true;
      cell_quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      finish_cell();
      ++i;
      continue;
    }
    if (c == '\n' ||
        (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n')) {
      finish_cell();
      *offset = i + (c == '\r' ? 2 : 1);
      *complete = true;
      return true;
    }
    // Lenient on technically malformed input (a stray quote inside an
    // unquoted cell, a bare CR, or text after a closing quote): taken
    // literally.
    cell.push_back(c);
    ++i;
  }
  // EOF before a terminating newline: the record is readable but
  // incomplete — an interrupted writer's torn last line lands here.
  finish_cell();
  *offset = i;
  return true;
}

}  // namespace esched
