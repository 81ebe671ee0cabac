#include "layers.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/exact_ctmc.hpp"
#include "linalg/csr.hpp"
#include "markov/block_solver.hpp"

namespace perfbench {

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::thread_index() {
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<int>(threads_.size()));
  return it->second;
}

std::uint64_t SpanLog::open(const std::string& name, std::uint64_t parent) {
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span{name, start, -1.0, spans_.size() + 1, parent, thread_index()};
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::close(std::uint64_t id) {
  const double end = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(id - 1).end = end;
}

void SpanLog::add(const std::string& name, double start, double end,
                  std::uint64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span{name, start, end, spans_.size() + 1, parent, thread_index()};
  spans_.push_back(std::move(span));
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end >= 0.0) out.push_back(s.end - s.start);
  }
  return out;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end >= 0.0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    if (s.end < 0.0) continue;
    // Children on other threads may overlap each other: subtract the
    // union of their intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const double lo = std::max(c->start, s.start);
        const double hi = std::min(c->end, s.end);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_seconds = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) union_seconds += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.name.substr(0, s.name.find('.'))] +=
        std::max(0.0, (s.end - s.start) - union_seconds);
  }
  return self;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  const auto num = [](double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
  };
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start\": " << num(s.start)
        << ", \"end\": " << num(s.end) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

std::uint64_t counter_delta(const esched::MetricsSnapshot& before,
                            const esched::MetricsSnapshot& after,
                            const std::string& name) {
  return after.counter_value(name) - before.counter_value(name);
}

esched::LogHistogram::Snapshot histogram_delta(
    const esched::MetricsSnapshot& before, const esched::MetricsSnapshot& after,
    const std::string& name) {
  esched::LogHistogram::Snapshot delta;
  const auto* a = after.find_histogram(name);
  if (a == nullptr) return delta;
  delta = *a;
  if (const auto* b = before.find_histogram(name)) {
    delta.count -= b->count;
    delta.sum -= b->sum;
    for (std::size_t n = 0; n < delta.buckets.size(); ++n) {
      delta.buckets[n] -= b->buckets[n];
    }
  }
  return delta;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double predicted_block_flops(const esched::RunPoint& point) {
  const esched::SystemParams& p = point.params;
  const long derived = esched::suggested_truncation(
      p.rho(), point.options.truncation_epsilon);
  const long imax = point.options.imax > 0 ? point.options.imax : derived;
  const long jmax = point.options.jmax > 0 ? point.options.jmax : derived;
  const long ni = imax + 1;
  const long nj = jmax + 1;
  const auto states = static_cast<std::size_t>(ni * nj);
  const auto policy = esched::make_policy(point.policy);
  esched::CsrMatrix rates;
  rates.begin_rows(states, states);
  std::vector<std::uint32_t> level_of(states);
  for (long i = 0; i < ni; ++i) {
    for (long j = 0; j < nj; ++j) {
      const auto s = static_cast<std::size_t>(i * nj + j);
      level_of[s] = static_cast<std::uint32_t>(ni >= nj ? i : j);
      const esched::Allocation a = policy->allocate({i, j}, p);
      const double usable = p.usable_elastic(a.elastic, j);
      const double svc_i = i > 0 && a.inelastic > 0.0 ? a.inelastic * p.mu_i : 0.0;
      const double svc_e = j > 0 && usable > 0.0 ? usable * p.mu_e : 0.0;
      if (svc_i > 0.0) rates.push(s - static_cast<std::size_t>(nj), svc_i);
      if (svc_e > 0.0) rates.push(s - 1, svc_e);
      if (j + 1 < nj && p.lambda_e > 0.0) rates.push(s + 1, p.lambda_e);
      if (i + 1 < ni && p.lambda_i > 0.0) {
        rates.push(s + static_cast<std::size_t>(nj), p.lambda_i);
      }
      rates.next_row();
    }
  }
  return esched::block_solver_flop_estimate(rates, level_of);
}

}  // namespace perfbench
