#include "common/atomic_file.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/error.hpp"

namespace esched {

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

void atomic_write_file(const std::string& path, const std::string& text) {
  const std::string tmp = unique_tmp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary);
    ESCHED_CHECK(out.good(), "cannot open '" + tmp + "' for writing");
    out << text;
    // A text shorter than the stream buffer reaches the file only here:
    // a failed final flush (disk full, file size limit) must not publish.
    out.close();
    if (!out.good()) {
      std::remove(tmp.c_str());
      throw Error("error writing '" + tmp + "'");
    }
  }
  atomic_publish_file(tmp, path);
}

void atomic_publish_file(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::remove(tmp.c_str());
  ESCHED_CHECK(!ec, "cannot move '" + tmp + "' into place at '" + path +
                        "': " + ec.message());
}

}  // namespace esched
