#include "engine/shm_cache.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/numeric.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define ESCHED_SHM_CACHE_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#else
#define ESCHED_SHM_CACHE_POSIX 0
#endif

namespace esched {

namespace {

// ---- on-disk format ------------------------------------------------------
// Header (4096 bytes, offsets below, everything u64 host-endian — the
// endian marker rejects a table written by a foreign-endian host):
constexpr char kMagic[8] = {'E', 'S', 'C', 'H', 'E', 'D', 'T', '1'};
constexpr std::uint64_t kEndianMarker = 0x0123456789abcdefull;
constexpr std::uint64_t kFormatVersion = 1;
constexpr std::uint64_t kHeaderBytes = 4096;
constexpr std::uint64_t kHdrMagic = 0;
constexpr std::uint64_t kHdrEndian = 8;
constexpr std::uint64_t kHdrVersion = 16;
constexpr std::uint64_t kHdrSlotCount = 24;
constexpr std::uint64_t kHdrSlotBytes = 32;
constexpr std::uint64_t kHdrPayloadBytes = 40;
constexpr std::uint64_t kHdrKeyCapacity = 48;
constexpr std::uint64_t kHdrStoreSeq = 56;  ///< atomic: next store sequence

// Slot (512 bytes): the state word at offset 0 is the only word ever
// touched with atomics; everything behind it is written exactly once
// between the CAS claim and the release publish, then immutable.
constexpr std::uint64_t kSlotBytes = 512;
constexpr std::uint64_t kSlotState = 0;
constexpr std::uint64_t kSlotKeyHash = 8;
constexpr std::uint64_t kSlotSeq = 16;
constexpr std::uint64_t kSlotKeyLen = 24;
constexpr std::uint64_t kSlotChecksum = 32;
constexpr std::uint64_t kSlotPayload = 40;

/// Probe window: a lookup or store scans at most this many slots from the
/// key's home slot before giving up (a store that gives up spills to the
/// file tier, so a nearly-full table degrades, never fails).
constexpr std::uint64_t kMaxProbes = 64;

/// How long a store waits for slots that other stores are filling before
/// it claims a slot of its own (see ShmResultCache::store). Long enough to
/// outlast a writer descheduled under load; a writer killed mid-store
/// never publishes, and this caps what its wedged slot costs a store.
constexpr std::chrono::milliseconds kInFlightWait{20};

std::uint64_t read_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void write_u64(unsigned char* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

std::atomic_ref<std::uint64_t> as_atomic_u64(unsigned char* p) {
  return std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(p));
}

std::uint64_t key_offset_in_slot() {
  return kSlotPayload + run_result_packed_bytes();
}

std::uint64_t slot_key_capacity() { return kSlotBytes - key_offset_in_slot(); }

/// Chained FNV-1a over (key length, key bytes, payload): the published
/// entry's integrity word. Verified against local copies on load, so a
/// mutated slot can at worst read as a miss.
std::uint64_t entry_checksum(std::uint64_t key_len, const unsigned char* key,
                             const unsigned char* payload,
                             std::uint64_t payload_bytes) {
  std::uint64_t h = fnv1a64_bytes(&key_len, sizeof(key_len));
  h = fnv1a64_bytes(key, key_len, h);
  return fnv1a64_bytes(payload, payload_bytes, h);
}

void fill_header(unsigned char* h, std::uint64_t slot_count,
                 std::uint64_t store_seq) {
  std::memset(h, 0, kHeaderBytes);
  std::memcpy(h + kHdrMagic, kMagic, sizeof(kMagic));
  write_u64(h + kHdrEndian, kEndianMarker);
  write_u64(h + kHdrVersion, kFormatVersion);
  write_u64(h + kHdrSlotCount, slot_count);
  write_u64(h + kHdrSlotBytes, kSlotBytes);
  write_u64(h + kHdrPayloadBytes, run_result_packed_bytes());
  write_u64(h + kHdrKeyCapacity, slot_key_capacity());
  write_u64(h + kHdrStoreSeq, store_seq);
}

/// True when `h` describes a table this build can use. Geometry is part of
/// the contract: a table with a different slot or payload size (an older
/// or newer RunResult) is incompatible and reads as "no table".
bool header_compatible(const unsigned char* h, std::uint64_t file_bytes,
                       std::uint64_t* slot_count_out) {
  if (std::memcmp(h + kHdrMagic, kMagic, sizeof(kMagic)) != 0) return false;
  if (read_u64(h + kHdrEndian) != kEndianMarker) return false;
  if (read_u64(h + kHdrVersion) != kFormatVersion) return false;
  const std::uint64_t slot_count = read_u64(h + kHdrSlotCount);
  if (slot_count == 0 || !std::has_single_bit(slot_count)) return false;
  if (read_u64(h + kHdrSlotBytes) != kSlotBytes) return false;
  if (read_u64(h + kHdrPayloadBytes) != run_result_packed_bytes()) return false;
  if (read_u64(h + kHdrKeyCapacity) != slot_key_capacity()) return false;
  // Divide rather than multiply: slot_count * kSlotBytes wraps for a
  // forged slot count of 2^55 or more.
  if (file_bytes < kHeaderBytes ||
      slot_count > (file_bytes - kHeaderBytes) / kSlotBytes) {
    return false;
  }
  *slot_count_out = slot_count;
  return true;
}

/// Mmap/observability handles, resolved once (registry lookups take a
/// mutex; probes must stay off it).
struct ShmMetrics {
  Counter& hits;               ///< cache.shm.hits
  Counter& misses;             ///< cache.shm.misses
  Counter& stores;             ///< cache.shm.stores
  Counter& spills;             ///< cache.shm.spills
  Counter& evictions;          ///< cache.shm.evictions
  LogHistogram& probe_length;  ///< cache.shm.probe.length
};

ShmMetrics& shm_metrics() {
  static ShmMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return ShmMetrics{m.counter("cache.shm.hits"),
                      m.counter("cache.shm.misses"),
                      m.counter("cache.shm.stores"),
                      m.counter("cache.shm.spills"),
                      m.counter("cache.shm.evictions"),
                      m.histogram("cache.shm.probe.length")};
  }();
  return metrics;
}

#if ESCHED_SHM_CACHE_POSIX

static_assert(ShmResultCache::kMaxSlotCount <=
                  (static_cast<std::uint64_t>(
                       std::numeric_limits<off_t>::max()) -
                   kHeaderBytes) /
                      kSlotBytes,
              "the largest table must fit off_t");

/// Maps `path` read-write/shared and validates the header. Returns the
/// base or nullptr; never throws — an unusable table means "no hot tier".
unsigned char* map_table_file(const std::string& path, std::uint64_t* bytes,
                              std::uint64_t* slot_count) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return nullptr;
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < static_cast<off_t>(kHeaderBytes)) {
    ::close(fd);
    return nullptr;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (base == MAP_FAILED) return nullptr;
  std::uint64_t slots = 0;
  if (!header_compatible(static_cast<unsigned char*>(base), size, &slots)) {
    ::munmap(base, size);
    return nullptr;
  }
  *bytes = size;
  *slot_count = slots;
  return static_cast<unsigned char*>(base);
}

/// Creates the table file if absent: header + zeroed slots, written to a
/// unique temp sibling and published with link(2), so concurrent creators
/// race cleanly — exactly one table survives and every loser maps it.
/// The slot region is ftruncate-extended (sparse), so a fresh default
/// table costs pages only as slots are touched. The temp file is mapped
/// once before it is published, so a table too large to map is never left
/// behind. On failure `error` (if given) names the step that failed, the
/// table's byte size and the OS error.
bool create_table_file(const std::string& path, std::uint64_t slot_count,
                       std::string* error) {
  const std::uint64_t total = kHeaderBytes + slot_count * kSlotBytes;
  const auto report = [&](const char* step) {
    if (error != nullptr) {
      *error = std::string(step) + " of the " + std::to_string(total) +
               "-byte table file failed: " + std::strerror(errno);
    }
    return false;
  };
  const std::string tmp = unique_tmp_path(path);
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return report("open");
  const auto fail = [&](const char* step) {
    report(step);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  };
  if (::ftruncate(fd, static_cast<off_t>(total)) != 0) {
    return fail("ftruncate");
  }
  unsigned char header[kHeaderBytes];
  fill_header(header, slot_count, 0);
  if (::pwrite(fd, header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    return fail("pwrite");
  }
  void* probe =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  if (probe == MAP_FAILED) return fail("mmap");
  ::munmap(probe, total);
  ::close(fd);
  if (::link(tmp.c_str(), path.c_str()) != 0) {
    const bool lost_race = errno == EEXIST;
    if (!lost_race) report("link");
    ::unlink(tmp.c_str());
    return lost_race;  // someone else published a table: map theirs
  }
  ::unlink(tmp.c_str());
  return true;
}

#endif  // ESCHED_SHM_CACHE_POSIX

}  // namespace

std::string ShmResultCache::table_path(const std::string& directory) {
  return directory + "/table.esched";
}

ShmResultCache::ShmResultCache(std::string path, unsigned char* base,
                               std::uint64_t bytes, std::uint64_t slot_count)
    : path_(std::move(path)),
      base_(base),
      mapped_bytes_(bytes),
      slot_count_(slot_count) {}

ShmResultCache::~ShmResultCache() { unmap(); }

unsigned char* ShmResultCache::slot_ptr(std::uint64_t index) const {
  return base_ + kHeaderBytes + index * kSlotBytes;
}

#if ESCHED_SHM_CACHE_POSIX

void ShmResultCache::unmap() {
  if (base_ != nullptr) ::munmap(base_, mapped_bytes_);
  base_ = nullptr;
  mapped_bytes_ = 0;
}

std::unique_ptr<ShmResultCache> ShmResultCache::open_existing(
    const std::string& directory) {
  const std::string path = table_path(directory);
  std::uint64_t bytes = 0;
  std::uint64_t slots = 0;
  unsigned char* base = map_table_file(path, &bytes, &slots);
  if (base == nullptr) return nullptr;
  return std::unique_ptr<ShmResultCache>(
      new ShmResultCache(path, base, bytes, slots));
}

std::unique_ptr<ShmResultCache> ShmResultCache::open_or_create(
    const std::string& directory, std::uint64_t slot_count,
    std::string* error) {
  ESCHED_CHECK(slot_count <= kMaxSlotCount,
               "a cache table holds at most " +
                   std::to_string(kMaxSlotCount) + " slots, not " +
                   std::to_string(slot_count));
  if (auto existing = open_existing(directory)) return existing;
  slot_count = std::bit_ceil(std::max(slot_count, kMinSlotCount));
  const std::string path = table_path(directory);
  if (!create_table_file(path, slot_count, error)) return nullptr;
  auto table = open_existing(directory);
  if (table == nullptr && error != nullptr) {
    *error = path + " exists but cannot be mapped as a table of this build";
  }
  return table;
}

#else  // !ESCHED_SHM_CACHE_POSIX

void ShmResultCache::unmap() {}

std::unique_ptr<ShmResultCache> ShmResultCache::open_existing(
    const std::string&) {
  return nullptr;
}

std::unique_ptr<ShmResultCache> ShmResultCache::open_or_create(
    const std::string&, std::uint64_t, std::string* error) {
  if (error != nullptr) *error = "this platform has no mmap support";
  return nullptr;
}

#endif  // ESCHED_SHM_CACHE_POSIX

std::optional<RunResult> ShmResultCache::load(const std::string& key) const {
  ShmMetrics& metrics = shm_metrics();
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  if (key.size() > slot_key_capacity()) {
    metrics.misses.add();
    return std::nullopt;
  }
  const std::uint64_t hash = fnv1a64(key);
  const std::uint64_t mask = slot_count_ - 1;
  const std::uint64_t probes = std::min(kMaxProbes, slot_count_);
  unsigned char payload[kSlotBytes];
  unsigned char slot_key[kSlotBytes];
  for (std::uint64_t probe = 0; probe < probes; ++probe) {
    unsigned char* slot = slot_ptr((hash + probe) & mask);
    // The acquire pairs with the storer's release: once `valid` is seen,
    // every body byte written before the publish is visible.
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state == kStateEmpty) break;  // end of this key's probe chain
    if (state != kStateValid) continue;  // mid-store or wedged writer
    if (read_u64(slot + kSlotKeyHash) != hash) continue;
    const std::uint64_t key_len = read_u64(slot + kSlotKeyLen);
    if (key_len != key.size() || key_len > slot_key_capacity()) continue;
    // Copy body first, checksum the copies: whatever happens to the slot
    // afterwards, the result we return is the one the checksum vouches
    // for. A mismatch (torn write, corruption) is a miss, never an error.
    std::memcpy(payload, slot + kSlotPayload, payload_bytes);
    std::memcpy(slot_key, slot + key_off, key_len);
    if (std::memcmp(slot_key, key.data(), key_len) != 0) continue;
    const std::uint64_t expected =
        entry_checksum(key_len, slot_key, payload, payload_bytes);
    if (read_u64(slot + kSlotChecksum) != expected) continue;
    metrics.hits.add();
    metrics.probe_length.record(static_cast<double>(probe + 1));
    return unpack_run_result(payload);
  }
  metrics.misses.add();
  return std::nullopt;
}

bool ShmResultCache::store(const std::string& key, const RunResult& result) {
  ShmMetrics& metrics = shm_metrics();
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  if (key.size() > slot_key_capacity()) {
    metrics.spills.add();
    return false;
  }
  const std::uint64_t hash = fnv1a64(key);
  const std::uint64_t mask = slot_count_ - 1;
  const std::uint64_t probes = std::min(kMaxProbes, slot_count_);
  unsigned char payload[kSlotBytes];
  pack_run_result(result, payload);
  // Results are deterministic in the key, so an existing entry for this
  // key makes the store a no-op (first writer wins). Only call on a slot
  // whose `valid` state was acquire-read.
  const auto holds_key = [&](const unsigned char* slot) {
    return read_u64(slot + kSlotKeyHash) == hash &&
           read_u64(slot + kSlotKeyLen) == key.size() &&
           std::memcmp(slot + key_off, key.data(), key.size()) == 0;
  };
  // Slots passed while another store was filling them. One of those may
  // be a concurrent store of this very key, so before claiming an empty
  // slot, wait (bounded, one deadline per call) for them to publish:
  // otherwise two racing stores of one key leave two entries.
  std::uint64_t in_flight[kMaxProbes];
  std::size_t num_in_flight = 0;
  std::chrono::steady_clock::time_point deadline{};
  const auto stored_meanwhile = [&] {
    if (num_in_flight == 0) return false;
    if (deadline == std::chrono::steady_clock::time_point{}) {
      deadline = std::chrono::steady_clock::now() + kInFlightWait;
    }
    for (std::size_t n = 0; n < num_in_flight; ++n) {
      unsigned char* slot = slot_ptr(in_flight[n]);
      const auto state = as_atomic_u64(slot + kSlotState);
      while (state.load(std::memory_order_acquire) != kStateValid &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (state.load(std::memory_order_acquire) == kStateValid &&
          holds_key(slot)) {
        return true;
      }
    }
    return false;
  };
  for (std::uint64_t probe = 0; probe < probes; ++probe) {
    const std::uint64_t index = (hash + probe) & mask;
    unsigned char* slot = slot_ptr(index);
    auto state = as_atomic_u64(slot + kSlotState);
    const std::uint64_t seen = state.load(std::memory_order_acquire);
    if (seen == kStateValid) {
      if (holds_key(slot)) return true;
      continue;
    }
    if (seen == kStateEmpty && stored_meanwhile()) return true;
    std::uint64_t expected = kStateEmpty;
    if (seen != kStateEmpty ||
        !state.compare_exchange_strong(expected, kStateWriting,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      in_flight[num_in_flight++] = index;  // someone else is writing here
      continue;
    }
    // Slot is ours. A crash between here and the publish wedges the slot
    // at `writing` — readers skip it, gc compaction reclaims it.
    const std::uint64_t seq = as_atomic_u64(base_ + kHdrStoreSeq)
                                  .fetch_add(1, std::memory_order_relaxed);
    write_u64(slot + kSlotKeyHash, hash);
    write_u64(slot + kSlotSeq, seq);
    write_u64(slot + kSlotKeyLen, key.size());
    std::memcpy(slot + kSlotPayload, payload, payload_bytes);
    std::memcpy(slot + key_off, key.data(), key.size());
    write_u64(slot + kSlotChecksum,
              entry_checksum(key.size(),
                             reinterpret_cast<const unsigned char*>(key.data()),
                             payload, payload_bytes));
    state.store(kStateValid, std::memory_order_release);
    metrics.stores.add();
    metrics.probe_length.record(static_cast<double>(probe + 1));
    return true;
  }
  metrics.spills.add();  // probe window full: caller stores to the file tier
  return false;
}

ShmTableInfo ShmResultCache::info() const {
  ShmTableInfo info;
  info.path = path_;
  info.format_version = kFormatVersion;
  info.slot_count = slot_count_;
  info.slot_bytes = kSlotBytes;
  info.payload_bytes = run_result_packed_bytes();
  info.key_capacity = slot_key_capacity();
  info.header_bytes = kHeaderBytes;
  info.payload_offset = kSlotPayload;
  info.key_offset = key_offset_in_slot();
  std::error_code ec;
  info.file_bytes = std::filesystem::file_size(path_, ec);
  if (ec) info.file_bytes = 0;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    unsigned char* slot = slot_ptr(i);
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state == kStateValid) ++info.valid_slots;
    else if (state != kStateEmpty) ++info.wedged_slots;
  }
  return info;
}

std::vector<CacheEntryInfo> ShmResultCache::list_entries() const {
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  struct Row {
    std::uint64_t seq;
    CacheEntryInfo info;
  };
  std::vector<Row> rows;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    unsigned char* slot = slot_ptr(i);
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state != kStateValid) continue;
    const std::uint64_t key_len = read_u64(slot + kSlotKeyLen);
    if (key_len > slot_key_capacity()) continue;
    const std::uint64_t expected = entry_checksum(
        key_len, slot + key_off, slot + kSlotPayload, payload_bytes);
    if (read_u64(slot + kSlotChecksum) != expected) continue;  // corrupt
    Row row;
    row.seq = read_u64(slot + kSlotSeq);
    row.info.path = path_;
    row.info.key.assign(reinterpret_cast<const char*>(slot + key_off),
                        key_len);
    row.info.bytes = kSlotBytes;
    row.info.age_seconds = 0.0;
    row.info.tier = "table";
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.seq != b.seq) return a.seq < b.seq;  // oldest store first
    return a.info.key < b.info.key;
  });
  std::vector<CacheEntryInfo> entries;
  entries.reserve(rows.size());
  for (Row& row : rows) entries.push_back(std::move(row.info));
  return entries;
}

std::size_t ShmResultCache::compact(std::uint64_t keep_newest) {
#if !ESCHED_SHM_CACHE_POSIX
  (void)keep_newest;
  return 0;
#else
  ShmMetrics& metrics = shm_metrics();
  const std::uint64_t payload_bytes = run_result_packed_bytes();
  const std::uint64_t key_off = key_offset_in_slot();
  // Snapshot the survivors: every valid, checksum-clean entry, newest
  // (highest store seq) preferred. Wedged and corrupt slots never survive
  // a rebuild — that is the point of compaction.
  struct Entry {
    std::uint64_t seq;
    std::string key;
    std::vector<unsigned char> payload;
  };
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < slot_count_; ++i) {
    unsigned char* slot = slot_ptr(i);
    const std::uint64_t state =
        as_atomic_u64(slot + kSlotState).load(std::memory_order_acquire);
    if (state != kStateValid) continue;
    const std::uint64_t key_len = read_u64(slot + kSlotKeyLen);
    if (key_len > slot_key_capacity()) continue;
    const std::uint64_t expected = entry_checksum(
        key_len, slot + key_off, slot + kSlotPayload, payload_bytes);
    if (read_u64(slot + kSlotChecksum) != expected) continue;
    Entry entry;
    entry.seq = read_u64(slot + kSlotSeq);
    entry.key.assign(reinterpret_cast<const char*>(slot + key_off), key_len);
    entry.payload.assign(slot + kSlotPayload,
                         slot + kSlotPayload + payload_bytes);
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.key < b.key;
            });
  const std::size_t keep =
      std::min<std::size_t>(entries.size(), keep_newest);
  const std::size_t dropped = entries.size() - keep;
  entries.erase(entries.begin(), entries.end() - static_cast<std::ptrdiff_t>(keep));

  // Rebuild at <= 50% load (retrying larger if survivors cluster past the
  // probe window), renumbering sequences densely from zero.
  std::uint64_t new_count = std::bit_ceil(std::max<std::uint64_t>(
      keep * 2, std::min(slot_count_, kMinSlotCount)));
  std::string image;
  for (;; new_count *= 2) {
    image.assign(kHeaderBytes + new_count * kSlotBytes, '\0');
    unsigned char* buf = reinterpret_cast<unsigned char*>(image.data());
    fill_header(buf, new_count, entries.size());
    const std::uint64_t mask = new_count - 1;
    const std::uint64_t probes = std::min(kMaxProbes, new_count);
    bool ok = true;
    for (std::size_t n = 0; n < entries.size() && ok; ++n) {
      const Entry& entry = entries[n];
      const std::uint64_t hash = fnv1a64(entry.key);
      ok = false;
      for (std::uint64_t probe = 0; probe < probes; ++probe) {
        unsigned char* slot =
            buf + kHeaderBytes + ((hash + probe) & mask) * kSlotBytes;
        if (read_u64(slot + kSlotState) != kStateEmpty) continue;
        write_u64(slot + kSlotState, kStateValid);
        write_u64(slot + kSlotKeyHash, hash);
        write_u64(slot + kSlotSeq, n);
        write_u64(slot + kSlotKeyLen, entry.key.size());
        std::memcpy(slot + kSlotPayload, entry.payload.data(), payload_bytes);
        std::memcpy(slot + key_off, entry.key.data(), entry.key.size());
        write_u64(slot + kSlotChecksum,
                  entry_checksum(entry.key.size(),
                                 reinterpret_cast<const unsigned char*>(
                                     entry.key.data()),
                                 entry.payload.data(), payload_bytes));
        ok = true;
        break;
      }
    }
    if (ok) break;
  }

  // Publish the rebuilt table over the old file and remap. Processes still
  // mapping the old inode keep a consistent (orphaned) view; their stores
  // land in a file nobody new will open — lost cache entries, never lost
  // correctness.
  atomic_write_file(path_, image);
  unmap();
  std::uint64_t bytes = 0;
  std::uint64_t slots = 0;
  base_ = map_table_file(path_, &bytes, &slots);
  ESCHED_CHECK(base_ != nullptr,
               "cannot remap compacted cache table '" + path_ + "'");
  mapped_bytes_ = bytes;
  slot_count_ = slots;
  metrics.evictions.add(dropped);
  return dropped;
#endif
}

// ---- TieredResultCache ---------------------------------------------------

TieredResultCache::TieredResultCache(std::string directory, bool create_table)
    : files_(std::move(directory)) {
  table_ = create_table ? ShmResultCache::open_or_create(files_.directory())
                        : ShmResultCache::open_existing(files_.directory());
}

std::optional<RunResult> TieredResultCache::load(const std::string& key) const {
  if (table_ != nullptr) {
    if (auto hit = table_->load(key)) return hit;
  }
  auto file_hit = files_.load(key);
  if (file_hit.has_value() && table_ != nullptr) {
    // Promote: a directory holding only per-entry files upgrades itself
    // entry by entry as keys are touched. The file copy is dropped only
    // once the slot is published, so the entry is never lost — and never
    // counted in both tiers by ls/gc.
    if (table_->store(key, *file_hit)) {
      std::error_code ec;
      std::filesystem::remove(files_.entry_path(key), ec);
    }
  }
  return file_hit;
}

void TieredResultCache::store(const std::string& key,
                              const RunResult& result) const {
  if (table_ != nullptr && table_->store(key, result)) return;
  files_.store(key, result);  // spill tier: oversized key or full table
}

std::vector<CacheEntryInfo> TieredResultCache::list_entries(
    bool with_keys) const {
  std::vector<CacheEntryInfo> entries = files_.list_entries(with_keys);
  if (table_ != nullptr) {
    std::vector<CacheEntryInfo> slots = table_->list_entries();
    entries.insert(entries.end(), std::make_move_iterator(slots.begin()),
                   std::make_move_iterator(slots.end()));
  }
  return entries;
}

CacheGcResult TieredResultCache::gc(
    std::optional<double> max_age_seconds,
    std::optional<std::uintmax_t> max_bytes) const {
  if (table_ == nullptr) return files_.gc(max_age_seconds, max_bytes);

  namespace fs = std::filesystem;
  // Age policy on the file tier, plus the stale-temp sweep of the whole
  // directory (table temps included); the byte budget is applied below
  // across both tiers (a table slot costs slot_bytes).
  CacheGcResult result = files_.gc(max_age_seconds, std::nullopt);
  ShmTableInfo table_info = table_->info();
  std::vector<CacheEntryInfo> table_entries = table_->list_entries();
  result.scanned += table_entries.size();
  std::uintmax_t file_total = result.bytes_kept;
  std::uintmax_t table_total =
      static_cast<std::uintmax_t>(table_entries.size()) *
      table_info.slot_bytes;
  if (max_bytes.has_value()) {
    // Evict file entries oldest-first until the union fits...
    for (const CacheEntryInfo& entry : files_.list_entries(false)) {
      if (file_total + table_total <= *max_bytes) break;
      std::error_code remove_ec;
      if (!fs::remove(entry.path, remove_ec) || remove_ec) continue;
      ++result.removed;
      result.bytes_removed += entry.bytes;
      file_total -= entry.bytes;
    }
    // ...then drop the oldest table entries by rebuilding around the
    // newest ones that fit the remaining budget.
    if (file_total + table_total > *max_bytes) {
      const std::uintmax_t budget =
          *max_bytes > file_total ? *max_bytes - file_total : 0;
      const std::uint64_t keep = budget / table_info.slot_bytes;
      const std::size_t dropped = table_->compact(keep);
      result.removed += dropped;
      result.bytes_removed +=
          static_cast<std::uintmax_t>(dropped) * table_info.slot_bytes;
      table_total -= static_cast<std::uintmax_t>(dropped) *
                     table_info.slot_bytes;
    }
  } else if (table_info.wedged_slots > 0) {
    // No byte pressure, but dead writers left wedged slots: rebuild to
    // reclaim them, keeping every live entry.
    table_->compact(table_entries.size());
  }
  result.bytes_kept = file_total + table_total;
  return result;
}

}  // namespace esched
