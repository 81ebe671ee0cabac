#include "common/atomic_file.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace esched {

namespace {

/// A temp file untouched for longer than this was left by a dead writer:
/// no publish here takes anywhere near an hour between open and rename.
constexpr double kStaleTmpSeconds = 3600.0;

}  // namespace

std::string unique_tmp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
#if __has_include(<unistd.h>)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1));
}

bool is_tmp_file_name(const std::string& name) {
  return name.find(".tmp.") != std::string::npos;
}

std::size_t remove_stale_tmp_files(const std::string& directory) {
  namespace fs = std::filesystem;
  const auto now = fs::file_time_type::clock::now();
  std::size_t removed = 0;
  std::error_code ec;
  for (fs::directory_iterator it(directory, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code file_ec;
    if (!it->is_regular_file(file_ec) ||
        !is_tmp_file_name(it->path().filename().string())) {
      continue;
    }
    const auto mtime = fs::last_write_time(it->path(), file_ec);
    if (file_ec ||
        std::chrono::duration<double>(now - mtime).count() <=
            kStaleTmpSeconds) {
      continue;
    }
    if (fs::remove(it->path(), file_ec) && !file_ec) ++removed;
  }
  return removed;
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write_body) {
  const std::string tmp = unique_tmp_path(path);
  std::ofstream out(tmp, std::ios::binary);
  ESCHED_CHECK(out.good(), "cannot open '" + tmp + "' for writing");
  try {
    write_body(out);
    // A body shorter than the stream buffer reaches the file only here:
    // a failed final flush (disk full, file size limit) must not publish.
    out.close();
    ESCHED_CHECK(out.good(), "error writing '" + tmp + "'");
  } catch (...) {
    out.close();
    std::remove(tmp.c_str());
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::remove(tmp.c_str());
  ESCHED_CHECK(!ec, "cannot move '" + tmp + "' into place at '" + path +
                        "': " + ec.message());
}

void atomic_write_file(const std::string& path, const std::string& text) {
  atomic_write_file(path, [&text](std::ostream& out) { out << text; });
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace esched
