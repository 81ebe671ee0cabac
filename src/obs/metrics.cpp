#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/atomic_file.hpp"
#include "common/error.hpp"

namespace esched {

namespace obs_detail {

std::size_t shard_index() {
  // Round-robin assignment spreads threads evenly over shards; the mask
  // needs kMetricShards to be a power of two.
  static_assert((kMetricShards & (kMetricShards - 1)) == 0,
                "kMetricShards must be a power of two");
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return slot;
}

}  // namespace obs_detail

namespace {

/// min/max folding by compare-exchange. Relaxed ordering: shards are
/// merged only after threads quiesce or for approximate snapshots.
void atomic_min(std::atomic<double>& value, double candidate) {
  double expected = value.load(std::memory_order_relaxed);
  while (candidate < expected &&
         !value.compare_exchange_weak(expected, candidate,
                                      std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& value, double candidate) {
  double expected = value.load(std::memory_order_relaxed);
  while (candidate > expected &&
         !value.compare_exchange_weak(expected, candidate,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (const Shard& shard : shards_) {
    sum += shard.value.load(std::memory_order_relaxed);
  }
  return sum;
}

std::size_t histogram_bucket(double value) {
  // ilogb(v) is the unbiased binary exponent: 2^e <= v < 2^(e+1). Shift by
  // -kHistMinExp so the first representable bucket lands at index 0, then
  // clamp: sub-range values (including 0 and any accidental negative)
  // fall into bucket 0, overflow into the top bucket.
  if (!(value > 0.0) || !std::isfinite(value)) return 0;
  const long idx = static_cast<long>(std::ilogb(value)) - kHistMinExp;
  if (idx < 0) return 0;
  if (idx >= static_cast<long>(kHistBuckets)) return kHistBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double histogram_bucket_lo(std::size_t b) {
  return std::ldexp(1.0, static_cast<int>(b) + kHistMinExp);
}

double histogram_bucket_hi(std::size_t b) {
  return std::ldexp(1.0, static_cast<int>(b) + kHistMinExp + 1);
}

void LogHistogram::record(double value) {
  Shard& shard = shards_[obs_detail::shard_index()];
  shard.buckets[histogram_bucket(value)].fetch_add(1,
                                                   std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
  atomic_min(shard.min, value);
  atomic_max(shard.max, value);
  shard.count.fetch_add(1, std::memory_order_relaxed);
}

double LogHistogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank target, then linear interpolation across the bucket that
  // contains it. Clamping to [min, max] keeps estimates inside the
  // observed range even when a bucket is far wider than its samples.
  const double target = q * static_cast<double>(count);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(below + in_bucket) >= target) {
      const double frac =
          (target - static_cast<double>(below)) / static_cast<double>(in_bucket);
      const double lo = histogram_bucket_lo(b);
      const double hi = histogram_bucket_hi(b);
      const double estimate = lo + frac * (hi - lo);
      return std::min(max, std::max(min, estimate));
    }
    below += in_bucket;
  }
  return max;
}

LogHistogram::Snapshot LogHistogram::snapshot() const {
  Snapshot out;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const Shard& shard : shards_) {
    const std::uint64_t n = shard.count.load(std::memory_order_relaxed);
    if (n == 0) continue;
    out.count += n;
    out.sum += shard.sum.load(std::memory_order_relaxed);
    lo = std::min(lo, shard.min.load(std::memory_order_relaxed));
    hi = std::max(hi, shard.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      out.buckets[b] += shard.buckets[b].load(std::memory_order_relaxed);
    }
  }
  // A snapshot racing a shard's first sample can still see its +inf/-inf
  // seeds; keep the 0 default then, since JSON cannot carry an infinity.
  if (std::isfinite(lo)) out.min = lo;
  if (std::isfinite(hi)) out.max = hi;
  return out;
}

JsonValue MetricsSnapshot::to_json() const {
  JsonValue root = JsonValue::make_object();
  root.set("schema_version",
           JsonValue::make_number(static_cast<double>(kMetricsSchemaVersion)));
  JsonValue counters_obj = JsonValue::make_object();
  for (const auto& [name, value] : counters) {
    counters_obj.set(name, JsonValue::make_number(static_cast<double>(value)));
  }
  root.set("counters", std::move(counters_obj));
  JsonValue hists_obj = JsonValue::make_object();
  for (const auto& [name, snap] : histograms) {
    JsonValue h = JsonValue::make_object();
    h.set("count", JsonValue::make_number(static_cast<double>(snap.count)));
    h.set("sum", JsonValue::make_number(snap.sum));
    h.set("min", JsonValue::make_number(snap.min));
    h.set("max", JsonValue::make_number(snap.max));
    h.set("mean", JsonValue::make_number(snap.mean()));
    h.set("p50", JsonValue::make_number(snap.quantile(0.50)));
    h.set("p90", JsonValue::make_number(snap.quantile(0.90)));
    h.set("p99", JsonValue::make_number(snap.quantile(0.99)));
    JsonValue buckets = JsonValue::make_array();
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      if (snap.buckets[b] == 0) continue;
      JsonValue entry = JsonValue::make_object();
      entry.set("lo", JsonValue::make_number(histogram_bucket_lo(b)));
      entry.set("hi", JsonValue::make_number(histogram_bucket_hi(b)));
      entry.set("count",
                JsonValue::make_number(static_cast<double>(snap.buckets[b])));
      buckets.push_back(std::move(entry));
    }
    h.set("buckets", std::move(buckets));
    hists_obj.set(name, std::move(h));
  }
  root.set("histograms", std::move(hists_obj));
  return root;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& [n, value] : counters) {
    if (n == name) return value;
  }
  return 0;
}

const LogHistogram::Snapshot* MetricsSnapshot::find_histogram(
    const std::string& name) const {
  for (const auto& [n, snap] : histograms) {
    if (n == name) return &snap;
  }
  return nullptr;
}

MetricsSnapshot metrics_snapshot_from_json(const JsonValue& doc,
                                           const std::string& where) {
  const JsonValue* version = doc.find("schema_version");
  if (version == nullptr ||
      version->as_integer(where + ".schema_version", 1, 1000000) !=
          kMetricsSchemaVersion) {
    throw Error(where + ": missing or unsupported metrics schema_version "
                        "(this build knows " +
                std::to_string(kMetricsSchemaVersion) + ")");
  }
  MetricsSnapshot out;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, value] :
         counters->as_object(where + ".counters")) {
      out.counters.emplace_back(
          name, static_cast<std::uint64_t>(value.as_integer(
                    where + ".counters." + name, 0,
                    std::numeric_limits<long long>::max())));
    }
  }
  if (const JsonValue* hists = doc.find("histograms")) {
    for (const auto& [name, h] : hists->as_object(where + ".histograms")) {
      const std::string hw = where + ".histograms." + name;
      LogHistogram::Snapshot snap;
      snap.count = static_cast<std::uint64_t>(
          h.find("count") == nullptr
              ? 0
              : h.find("count")->as_integer(
                    hw + ".count", 0, std::numeric_limits<long long>::max()));
      if (const JsonValue* v = h.find("sum")) snap.sum = v->as_number(hw);
      if (const JsonValue* v = h.find("min")) snap.min = v->as_number(hw);
      if (const JsonValue* v = h.find("max")) snap.max = v->as_number(hw);
      if (const JsonValue* buckets = h.find("buckets")) {
        for (const JsonValue& entry : buckets->as_array(hw + ".buckets")) {
          const JsonValue* lo = entry.find("lo");
          const JsonValue* count = entry.find("count");
          if (lo == nullptr || count == nullptr) {
            throw Error(hw + ": bucket entry lacks lo/count");
          }
          // `lo` is the bucket's exact power-of-two lower bound, so
          // histogram_bucket maps it straight back to its index.
          snap.buckets[histogram_bucket(lo->as_number(hw + ".lo"))] +=
              static_cast<std::uint64_t>(count->as_integer(
                  hw + ".count", 0, std::numeric_limits<long long>::max()));
        }
      }
      out.histograms.emplace_back(name, snap);
    }
  }
  return out;
}

namespace {

/// Folds `from` into `into` bucket-wise; quantiles of the result come from
/// the merged buckets, never from averaging per-process quantiles.
void merge_histogram_snapshots(LogHistogram::Snapshot& into,
                               const LogHistogram::Snapshot& from) {
  if (from.count == 0) return;
  if (into.count == 0) {
    into = from;
    return;
  }
  into.sum += from.sum;
  into.min = std::min(into.min, from.min);
  into.max = std::max(into.max, from.max);
  into.count += from.count;
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    into.buckets[b] += from.buckets[b];
  }
}

}  // namespace

MetricsSnapshot merge_metrics_snapshots(
    const std::vector<MetricsSnapshot>& snapshots) {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, LogHistogram::Snapshot> histograms;
  for (const MetricsSnapshot& snap : snapshots) {
    for (const auto& [name, value] : snap.counters) counters[name] += value;
    for (const auto& [name, hist] : snap.histograms) {
      merge_histogram_snapshots(histograms[name], hist);
    }
  }
  MetricsSnapshot out;
  // std::map iteration restores the name order to_json relies on.
  for (const auto& [name, value] : counters) {
    out.counters.emplace_back(name, value);
  }
  for (const auto& [name, hist] : histograms) {
    out.histograms.emplace_back(name, hist);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LogHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  // std::map iteration is already name-sorted, which is what makes the
  // serialized snapshot deterministic.
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->total());
  }
  for (const auto& [name, hist] : histograms_) {
    out.histograms.emplace_back(name, hist->snapshot());
  }
  return out;
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

void write_metrics_json(const MetricsRegistry& registry,
                        const std::string& path) {
  atomic_write_file(path, registry.snapshot().to_json().dump() + "\n");
}

ScopedTimer::ScopedTimer(LogHistogram& hist, Counter* count)
    : hist_(hist), count_(count), start_(std::chrono::steady_clock::now()) {}

ScopedTimer::~ScopedTimer() {
  hist_.record(std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count());
  if (count_ != nullptr) count_->add();
}

}  // namespace esched
