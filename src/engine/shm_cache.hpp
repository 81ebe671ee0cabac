// Mmap'd open-addressing result cache — the hot tier of the persistent
// cache. One fixed-geometry table file (`table.esched`) per cache
// directory, shared MAP_SHARED by every thread and worker process that
// maps it; a warm hit is a lock-free linear probe over fixed-width slots
// instead of a file open + text parse.
//
// Crash/concurrency story (mirrors the dist queue's lease discipline —
// never trust anything that was not atomically published):
//   - A slot's state word is the publication point. Stores claim an empty
//     slot with a CAS (empty -> writing), fill key/payload/checksum, then
//     release-store `valid`; loads acquire-read the state and only then
//     touch the slot body.
//   - The checksum (FNV-1a over key length + key bytes + payload) and the
//     full key stored in the slot mean a torn write, a hash collision, or
//     a corrupt page reads as a miss — never as a wrong result.
//   - A writer killed mid-store leaves its slot wedged at `writing`
//     forever; every reader and writer skips it, and gc's compaction
//     rebuilds the table without it.
//   - Slots are immutable once valid (results are deterministic in the
//     key, so the first writer wins and there is nothing to update).
//     Before claiming an empty slot, a store waits (at most 20 ms per
//     call) for the `writing` slots it probed past to publish, and stops
//     if one holds its key, so racing stores of one key leave one entry.
// Oversized keys (and probe-exhausted stores) spill to the file-per-entry
// DiskResultCache tier; TieredResultCache glues the two together.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/disk_cache.hpp"
#include "engine/solver_dispatch.hpp"

namespace esched {

/// Geometry + occupancy of one table file, for `esched cache info`, gc's
/// byte accounting, and tests that need slot offsets to corrupt bytes.
struct ShmTableInfo {
  std::string path;
  std::uint64_t format_version = 0;
  std::uint64_t slot_count = 0;     ///< power of two
  std::uint64_t slot_bytes = 0;
  std::uint64_t payload_bytes = 0;  ///< run_result_packed_bytes()
  std::uint64_t key_capacity = 0;   ///< longest representable key
  std::uint64_t header_bytes = 0;   ///< slot 0 starts here
  std::uint64_t payload_offset = 0; ///< within a slot
  std::uint64_t key_offset = 0;     ///< within a slot
  std::uint64_t valid_slots = 0;    ///< published entries
  std::uint64_t wedged_slots = 0;   ///< claimed by a dead writer
  std::uintmax_t file_bytes = 0;    ///< apparent size (file is sparse)
};

class ShmResultCache {
 public:
  /// Slot state machine: empty -> writing (CAS claim) -> valid (release
  /// publish). Public so tests can assert on raw slot words.
  static constexpr std::uint64_t kStateEmpty = 0;
  static constexpr std::uint64_t kStateWriting = 1;
  static constexpr std::uint64_t kStateValid = 2;

  static constexpr std::uint64_t kDefaultSlotCount = 32768;  ///< ~16 MiB sparse
  static constexpr std::uint64_t kMinSlotCount = 64;
  /// The largest power of two whose table file (4 KiB header + 512 B
  /// slots) fits a signed 64-bit file offset.
  static constexpr std::uint64_t kMaxSlotCount = std::uint64_t{1} << 53;

  /// The table file inside a cache directory.
  static std::string table_path(const std::string& directory);

  /// Maps an existing table; nullptr when the file is absent, the platform
  /// has no mmap, or the header is incompatible (wrong magic/version/
  /// geometry/endianness) — callers fall back to the file tier.
  static std::unique_ptr<ShmResultCache> open_existing(
      const std::string& directory);

  /// open_existing, creating (atomically — concurrent creators race on a
  /// link(2) publish and exactly one table survives) a fresh table of
  /// `slot_count` slots when none exists. `slot_count` is rounded up to a
  /// power of two; one over kMaxSlotCount throws. nullptr when the table
  /// cannot be created or mapped (no mmap, an unwritable directory, a size
  /// the filesystem or the address space refuses); `error` (if given) then
  /// says which step failed, with the table's byte size and the OS error.
  static std::unique_ptr<ShmResultCache> open_or_create(
      const std::string& directory,
      std::uint64_t slot_count = kDefaultSlotCount,
      std::string* error = nullptr);

  ~ShmResultCache();
  ShmResultCache(const ShmResultCache&) = delete;
  ShmResultCache& operator=(const ShmResultCache&) = delete;

  /// Lock-free linear probe. A checksum/key mismatch in a valid slot is
  /// skipped (counted as corruption, read as a miss), a `writing` slot is
  /// skipped, an `empty` slot ends the probe.
  std::optional<RunResult> load(const std::string& key) const;

  /// Claims a slot and publishes the entry; false when the key is too long
  /// for a slot or the probe window is full (caller spills to the file
  /// tier). Returns true without writing when the key is already present.
  bool store(const std::string& key, const RunResult& result);

  /// True when `key` fits a slot's inline key area.
  bool representable(const std::string& key) const;

  ShmTableInfo info() const;

  /// Every published entry as a manifest row (tier = "table",
  /// bytes = slot_bytes, age 0 — slots carry a store sequence number, not
  /// a wall-clock time). Ordered oldest store first.
  std::vector<CacheEntryInfo> list_entries() const;

  /// Rebuilds the table keeping only the `keep_newest` most recently
  /// stored entries (wedged and corrupt slots are always dropped), shrinks
  /// the slot count to fit the survivors, and atomically publishes the new
  /// file over the old one, remapping this handle. Concurrent mappers of
  /// the old file keep a consistent (now orphaned) view. Returns the
  /// number of entries dropped.
  std::size_t compact(std::uint64_t keep_newest);

  const std::string& path() const { return path_; }
  std::uint64_t slot_count() const { return slot_count_; }
  std::uint64_t slot_bytes() const;
  std::uint64_t key_capacity() const;

 private:
  ShmResultCache(std::string path, unsigned char* base, std::uint64_t bytes,
                 std::uint64_t slot_count);

  unsigned char* slot_ptr(std::uint64_t index) const;
  void unmap();

  std::string path_;
  unsigned char* base_ = nullptr;  ///< mmap base (header at offset 0)
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t slot_count_ = 0;
};

/// The two tiers behind --cache-dir: the mmap table for everything that
/// fits a slot, the per-entry files for what does not (and for directories
/// whose table cannot be created). load() promotes file-tier hits into the
/// table so old per-entry caches transparently upgrade; ls/gc see the
/// union of both tiers.
class TieredResultCache {
 public:
  /// `create_table` false: map the table only if it exists (inspecting a
  /// directory must not seed a table file in it).
  explicit TieredResultCache(std::string directory, bool create_table = true);

  std::optional<RunResult> load(const std::string& key) const;
  void store(const std::string& key, const RunResult& result) const;

  /// Union manifest: file entries (oldest first) then table entries
  /// (oldest store first).
  std::vector<CacheEntryInfo> list_entries(bool with_keys = true) const;

  /// Two-tier gc. The age policy applies to file entries only (table slots
  /// have no wall-clock age). The byte budget counts file bytes plus
  /// slot_bytes per published table entry and evicts files oldest-first,
  /// then compacts the table down to the newest entries that fit.
  CacheGcResult gc(std::optional<double> max_age_seconds,
                   std::optional<std::uintmax_t> max_bytes) const;

  const std::string& directory() const { return files_.directory(); }
  const ShmResultCache* table() const { return table_.get(); }
  ShmResultCache* table() { return table_.get(); }
  const DiskResultCache& files() const { return files_; }

 private:
  DiskResultCache files_;
  std::unique_ptr<ShmResultCache> table_;
};

}  // namespace esched
