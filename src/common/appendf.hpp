// printf-style formatting that never truncates.
//
// Both overloads size their output with vsnprintf(nullptr, 0, ...) first,
// so a line is written whole however long its arguments are: a report row
// with a 600-byte span name, or a status frame quoting a long error.
#pragma once

#include <iosfwd>
#include <string>

namespace esched {

/// Appends the printf-formatted text to `*out`.
void appendf(std::string* out, const char* fmt, ...);

/// Writes the printf-formatted text to `out`.
void appendf(std::ostream& out, const char* fmt, ...);

}  // namespace esched
