// Crash-safe files. Every artifact another process reads back — reports,
// shard and chunk CSVs, cache entries, queue records, telemetry snapshots —
// is published here: the body streams into a unique sibling temp file,
// which is closed, checked and renamed into place. POSIX rename atomicity
// means a reader never observes a torn file under the final name, and
// concurrent writers racing on one path each publish a complete file (last
// rename wins). This module also owns the temp naming, the rule for when
// an orphaned temp is stale, and the whole-file read.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

namespace esched {

/// A collision-safe sibling temp name for `path`: "<path>.tmp.<pid>.<n>"
/// with a process-wide counter, so concurrent writers — including several
/// in one process — never share a temp file. atomic_write_file picks its
/// temps here; call it directly only for a publish that cannot go through
/// a stream (the shm table's link(2) creation).
std::string unique_tmp_path(const std::string& path);

/// True for a file name unique_tmp_path made (it contains ".tmp."): a
/// publish in progress, or debris from a writer that died mid-publish.
/// Readers scanning a directory skip such files.
bool is_tmp_file_name(const std::string& name);

/// Removes the temp files (is_tmp_file_name) directly in `directory` that
/// have not been written for over an hour: their writers are long dead. A
/// younger temp may belong to a live writer mid-publish and stays. Returns
/// how many were removed; an unreadable directory removes none.
std::size_t remove_stale_tmp_files(const std::string& directory);

/// Atomically replaces `path` with what `write_body` streams into the
/// temp file. Throws esched::Error when the temp cannot be opened, written
/// or flushed (a failed final flush included), and rethrows whatever
/// `write_body` throws; either way the temp is removed first and `path` is
/// left as it was.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& write_body);

/// Atomically replaces `path` with `text`, as the streaming form above.
void atomic_write_file(const std::string& path, const std::string& text);

/// The whole content of `path`, byte for byte; nullopt when it cannot be
/// opened.
std::optional<std::string> read_file(const std::string& path);

}  // namespace esched
