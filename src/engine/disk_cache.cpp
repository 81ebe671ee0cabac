#include "engine/disk_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#if __has_include(<unistd.h>)
#include <unistd.h>
#endif

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/numeric.hpp"
#include "obs/metrics.hpp"

namespace esched {

namespace {

constexpr const char* kFormatTag = "esched-cache-v1";

/// Disk-cache observability handles, resolved once so load/store stay off
/// the registry mutex.
struct CacheMetrics {
  Counter& hits;                ///< cache.disk.hits
  Counter& misses;              ///< cache.disk.misses
  Counter& stores;              ///< cache.disk.stores
  Counter& gc_removed;          ///< cache.disk.gc.removed
  LogHistogram& load_seconds;   ///< cache.disk.load.seconds
  LogHistogram& store_seconds;  ///< cache.disk.store.seconds
  LogHistogram& gc_seconds;     ///< cache.disk.gc.seconds
};

CacheMetrics& cache_metrics() {
  static CacheMetrics metrics = [] {
    MetricsRegistry& m = global_metrics();
    return CacheMetrics{m.counter("cache.disk.hits"),
                        m.counter("cache.disk.misses"),
                        m.counter("cache.disk.stores"),
                        m.counter("cache.disk.gc.removed"),
                        m.histogram("cache.disk.load.seconds"),
                        m.histogram("cache.disk.store.seconds"),
                        m.histogram("cache.disk.gc.seconds")};
  }();
  return metrics;
}

std::string hex_fnv1a(const std::string& text) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return buf;
}

std::string format_field(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// One persisted RunResult field: its on-disk name and which member it
/// round-trips through. This table is the single source of truth for the
/// serializer, the deserializer, and the expected-field-count check.
struct FieldSpec {
  const char* name;
  double RunResult::* as_double = nullptr;
  long RunResult::* as_long = nullptr;
  int RunResult::* as_int = nullptr;
};

constexpr FieldSpec fd(const char* name, double RunResult::* member) {
  return {name, member, nullptr, nullptr};
}
constexpr FieldSpec fl(const char* name, long RunResult::* member) {
  return {name, nullptr, member, nullptr};
}
constexpr FieldSpec fi(const char* name, int RunResult::* member) {
  return {name, nullptr, nullptr, member};
}

// Order is the on-disk order; names are part of the cache format, so
// renaming one silently invalidates existing entries (they read as
// misses, never as wrong results).
const FieldSpec kRunResultFields[] = {
    fd("et", &RunResult::mean_response_time),
    fd("et_i", &RunResult::mean_response_time_i),
    fd("et_e", &RunResult::mean_response_time_e),
    fd("en_i", &RunResult::mean_jobs_i),
    fd("en_e", &RunResult::mean_jobs_e),
    fd("ci", &RunResult::ci_halfwidth),
    fd("p50_i", &RunResult::p50_i),
    fd("p95_i", &RunResult::p95_i),
    fd("p99_i", &RunResult::p99_i),
    fd("p50_e", &RunResult::p50_e),
    fd("p95_e", &RunResult::p95_e),
    fd("p99_e", &RunResult::p99_e),
    fd("boundary", &RunResult::boundary_mass),
    fl("states", &RunResult::num_states),
    fd("dom_viol", &RunResult::dom_max_violation),
    fd("dom_viol_i", &RunResult::dom_max_violation_i),
    fd("dom_gap", &RunResult::dom_avg_gap),
    fl("dom_checkpoints", &RunResult::dom_checkpoints),
    fi("iterations", &RunResult::solver_iterations),
    fd("residual", &RunResult::solve_residual),
    fd("seconds", &RunResult::solve_seconds),
};

const FieldSpec* find_field(const std::string& name) {
  for (const FieldSpec& field : kRunResultFields) {
    if (name == field.name) return &field;
  }
  return nullptr;
}

}  // namespace

std::size_t run_result_field_count() {
  return std::size(kRunResultFields);
}

std::size_t run_result_packed_bytes() {
  return std::size(kRunResultFields) * 8;
}

void pack_run_result(const RunResult& r, unsigned char* out) {
  for (const FieldSpec& field : kRunResultFields) {
    std::uint64_t word = 0;
    if (field.as_double != nullptr) {
      const double value = r.*field.as_double;
      std::memcpy(&word, &value, sizeof(word));
    } else {
      const std::int64_t value = field.as_long != nullptr
                                     ? static_cast<std::int64_t>(r.*field.as_long)
                                     : static_cast<std::int64_t>(r.*field.as_int);
      std::memcpy(&word, &value, sizeof(word));
    }
    std::memcpy(out, &word, sizeof(word));
    out += sizeof(word);
  }
}

RunResult unpack_run_result(const unsigned char* in) {
  RunResult r;
  for (const FieldSpec& field : kRunResultFields) {
    std::uint64_t word = 0;
    std::memcpy(&word, in, sizeof(word));
    in += sizeof(word);
    if (field.as_double != nullptr) {
      double value = 0.0;
      std::memcpy(&value, &word, sizeof(value));
      r.*field.as_double = value;
    } else {
      std::int64_t value = 0;
      std::memcpy(&value, &word, sizeof(value));
      if (field.as_long != nullptr) r.*field.as_long = static_cast<long>(value);
      else r.*field.as_int = static_cast<int>(value);
    }
  }
  return r;
}

std::string serialize_run_result(const RunResult& r) {
  std::ostringstream out;
  out << kFormatTag << '\n';
  for (const FieldSpec& field : kRunResultFields) {
    out << field.name << ' ';
    if (field.as_double != nullptr) out << format_field(r.*field.as_double);
    else if (field.as_long != nullptr) out << r.*field.as_long;
    else out << r.*field.as_int;
    out << '\n';
  }
  return out.str();
}

std::optional<RunResult> deserialize_run_result(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  if (!std::getline(in, tag) || tag != kFormatTag) return std::nullopt;
  RunResult r;
  // Distinct field names, not occurrences: a corrupt entry with one line
  // duplicated and another lost must read as a miss, never as a result
  // with a silently-zeroed metric.
  std::set<std::string> seen;
  std::string name;
  while (in >> name) {
    if (!seen.insert(name).second) return std::nullopt;
    const FieldSpec* field = find_field(name);
    if (field == nullptr) return std::nullopt;  // written by a newer build
    if (field->as_double != nullptr) {
      double value = 0.0;
      if (!(in >> value)) return std::nullopt;
      r.*field->as_double = value;
    } else {
      long value = 0;
      if (!(in >> value)) return std::nullopt;
      if (field->as_long != nullptr) r.*field->as_long = value;
      else r.*field->as_int = static_cast<int>(value);
    }
  }
  if (seen.size() != run_result_field_count()) return std::nullopt;
  return r;
}

DiskResultCache::DiskResultCache(std::string directory)
    : directory_(std::move(directory)) {
  ESCHED_CHECK(!directory_.empty(), "cache directory path is empty");
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  ESCHED_CHECK(!ec, "cannot create cache directory '" + directory_ +
                        "': " + ec.message());
}

std::string DiskResultCache::entry_path(const std::string& key) const {
  return directory_ + "/" + hex_fnv1a(key) + ".result";
}

std::optional<RunResult> DiskResultCache::load(const std::string& key) const {
  CacheMetrics& metrics = cache_metrics();
  const ScopedTimer timer(metrics.load_seconds);
  const auto miss = [&] {
    metrics.misses.add();
    return std::nullopt;
  };
  const std::string path = entry_path(key);
#if __has_include(<unistd.h>)
  // Most loads miss (a cold sweep probes every point); one access(2) is
  // far cheaper than constructing a stream on a file that is not there.
  if (::access(path.c_str(), F_OK) != 0) return miss();
#endif
  std::ifstream in(path);
  if (!in.good()) return miss();
  std::string first_line;
  if (!std::getline(in, first_line) || first_line != "key " + key) {
    return miss();  // hash collision or foreign file: miss
  }
  std::stringstream rest;
  rest << in.rdbuf();
  auto result = deserialize_run_result(rest.str());
  if (!result.has_value()) return miss();
  metrics.hits.add();
  return result;
}

void DiskResultCache::store(const std::string& key,
                            const RunResult& result) const {
  CacheMetrics& metrics = cache_metrics();
  const ScopedTimer timer(metrics.store_seconds, &metrics.stores);
  // Published atomically: concurrent shard processes may race on the same
  // key and either complete file wins.
  try {
    atomic_write_file(entry_path(key), [&](std::ostream& out) {
      out << "key " << key << '\n' << serialize_run_result(result);
    });
  } catch (const Error&) {
    // An unwritable cache skips persistence: the cache is an accelerator,
    // not a correctness dependency.
  }
}

std::vector<CacheEntryInfo> DiskResultCache::list_entries(
    bool with_keys) const {
  namespace fs = std::filesystem;
  const auto now = fs::file_time_type::clock::now();
  std::vector<CacheEntryInfo> entries;
  std::error_code ec;
  for (fs::directory_iterator it(directory_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const fs::path& path = it->path();
    if (path.extension() != ".result" || !it->is_regular_file(ec)) continue;
    CacheEntryInfo info;
    info.path = path.string();
    info.bytes = fs::file_size(path, ec);
    if (ec) continue;
    const auto mtime = fs::last_write_time(path, ec);
    if (ec) continue;
    info.age_seconds =
        std::chrono::duration<double>(now - mtime).count();
    if (with_keys) {
      std::ifstream in(info.path);
      std::string first_line;
      if (std::getline(in, first_line) && first_line.rfind("key ", 0) == 0) {
        info.key = first_line.substr(4);
      }
    }
    entries.push_back(std::move(info));
  }
  std::sort(entries.begin(), entries.end(),
            [](const CacheEntryInfo& a, const CacheEntryInfo& b) {
              if (a.age_seconds != b.age_seconds) {
                return a.age_seconds > b.age_seconds;  // oldest first
              }
              return a.path < b.path;
            });
  return entries;
}

CacheGcResult DiskResultCache::gc(std::optional<double> max_age_seconds,
                                  std::optional<std::uintmax_t> max_bytes) const {
  CacheMetrics& metrics = cache_metrics();
  const ScopedTimer timer(metrics.gc_seconds);
  namespace fs = std::filesystem;
  // Temp files orphaned by dead writers (result entries, table creation
  // or compaction) are garbage regardless of the age/size policy.
  remove_stale_tmp_files(directory_);

  // Oldest first; keys are not needed for the age/size policy.
  const std::vector<CacheEntryInfo> entries = list_entries(false);
  CacheGcResult result;
  result.scanned = entries.size();
  std::uintmax_t total = 0;
  for (const CacheEntryInfo& entry : entries) total += entry.bytes;
  for (const CacheEntryInfo& entry : entries) {
    const bool too_old =
        max_age_seconds.has_value() && entry.age_seconds > *max_age_seconds;
    const bool over_budget = max_bytes.has_value() && total > *max_bytes;
    if (!too_old && !over_budget) continue;
    std::error_code remove_ec;
    if (!fs::remove(entry.path, remove_ec) || remove_ec) continue;
    ++result.removed;
    metrics.gc_removed.add();
    result.bytes_removed += entry.bytes;
    total -= entry.bytes;
  }
  result.bytes_kept = total;
  return result;
}

}  // namespace esched
