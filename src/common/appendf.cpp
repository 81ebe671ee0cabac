#include "common/appendf.hpp"

#include <cstdarg>
#include <cstdio>
#include <ostream>

namespace esched {

namespace {

void vappendf(std::string* out, const char* fmt, va_list ap) {
  va_list sizing;
  va_copy(sizing, ap);
  const int len = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (len > 0) {
    // vsnprintf writes a terminating NUL; C++17 lets it land on the
    // string's own terminator, so size the string to the text alone.
    const std::size_t at = out->size();
    out->resize(at + static_cast<std::size_t>(len));
    std::vsnprintf(out->data() + at, static_cast<std::size_t>(len) + 1, fmt,
                   ap);
  }
}

}  // namespace

void appendf(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  vappendf(out, fmt, ap);
  va_end(ap);
}

void appendf(std::ostream& out, const char* fmt, ...) {
  std::string text;
  va_list ap;
  va_start(ap, fmt);
  vappendf(&text, fmt, ap);
  va_end(ap);
  out << text;
}

}  // namespace esched
