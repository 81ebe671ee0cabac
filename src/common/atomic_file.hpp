// Crash-safe file publication: write a sibling temp file, then rename it
// into place. POSIX rename atomicity means a reader never observes a torn
// file under the final name, and concurrent writers racing on one path
// each publish a complete file (last rename wins). Shared by the report
// mergers, the disk-backed work queue (src/dist), and anything else that
// must never leave a half-written artifact.
#pragma once

#include <string>

namespace esched {

/// A collision-safe sibling temp name for `path`: "<path>.tmp.<pid>.<n>"
/// with a process-wide counter, so concurrent writers — including several
/// in one process — never share a temp file. Files matching ".tmp." are
/// recognized as sweepable cruft by the queue's and cache's gc passes.
std::string unique_tmp_path(const std::string& path);

/// Atomically replaces `path` with `text` (unique temp + rename). Throws
/// esched::Error on failure, including a failed final flush, removing the
/// temp file first; `path` is then left as it was.
void atomic_write_file(const std::string& path, const std::string& text);

/// Atomically moves `tmp` (a fully-written file) into place at `path`.
/// Throws esched::Error on failure, removing `tmp` first. The publish
/// half of atomic_write_file, for writers that stream into the temp file
/// themselves.
void atomic_publish_file(const std::string& tmp, const std::string& path);

}  // namespace esched
