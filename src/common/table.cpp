#include "common/table.hpp"

#include <array>
#include <charconv>
#include <iomanip>
#include <ostream>

#include "common/error.hpp"

namespace esched {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  ESCHED_CHECK(!header_.empty(), "table header must be non-empty");
}

void Table::add_row(std::vector<std::string> cells) {
  ESCHED_CHECK(cells.size() == header_.size(),
               "row arity must match header arity");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  print_row(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string format_double(double value, int digits) {
  // chars_format::general with a precision is printf's %.{digits}g, which
  // is what an ostream at setprecision(digits) prints.
  std::array<char, 128> buf{};
  const auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(),
                                       value, std::chars_format::general,
                                       digits);
  ESCHED_CHECK(ec == std::errc{}, "format_double: " + std::to_string(digits) +
                                      " digits overflow the buffer");
  return std::string(buf.data(), end);
}

}  // namespace esched
