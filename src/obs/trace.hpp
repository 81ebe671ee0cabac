// Structured JSONL trace of sweep lifecycle events. Each event serializes
// to exactly one line — {"t": <seconds>, "ev": "<type>", "pid": <pid>,
// "seq": <n>, ...fields} — so the file is greppable, `jq`-able, and
// appendable by design. Timestamps are steady_clock seconds relative to
// the writer's construction (monotonic: immune to wall-clock adjustment,
// and directly comparable across events of one run); `pid` and the
// per-process monotonic `seq` let `esched trace report` merge traces from
// many workers and order them deterministically by (t, pid, seq).
//
// Producers throughout the engine emit through the process-global sink
// (set_global_trace); when no sink is installed — the default — emission
// is a single relaxed atomic load, so traces cost nothing unless
// requested with `esched run --trace`. Like the metrics layer, tracing is
// observation only: it must never change report bytes, RNG streams, or
// cache keys.
//
// Event reference (producer → types):
//   sweep   → sweep_start, point_start, point_done, point_error,
//             cache_hit, disk_hit, sweep_done
//   dist    → lease_claim, lease_requeue, chunk_commit, chunk_failed,
//             worker_start, worker_done
//   spans   → span_begin, span_end (see TraceSpan below): paired events
//             carrying {span, parent, name}, forming the per-process span
//             tree worker → chunk → sweep → point → solve (→ exact.build,
//             exact.factor for exact solves) that
//             `esched trace report` reconstructs across workers
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace esched {

/// One "key": value field of a trace event, built from the common value
/// shapes so call sites stay terse.
struct TraceField {
  TraceField(const char* k, const std::string& v)
      : key(k), value(JsonValue::make_string(v)) {}
  TraceField(const char* k, const char* v)
      : key(k), value(JsonValue::make_string(v)) {}
  TraceField(const char* k, double v)
      : key(k), value(JsonValue::make_number(v)) {}
  TraceField(const char* k, int v)
      : key(k), value(JsonValue::make_number(static_cast<double>(v))) {}
  TraceField(const char* k, long v)
      : key(k), value(JsonValue::make_number(static_cast<double>(v))) {}
  TraceField(const char* k, std::size_t v)
      : key(k), value(JsonValue::make_number(static_cast<double>(v))) {}
  TraceField(const char* k, bool v) : key(k), value(JsonValue::make_bool(v)) {}

  const char* key;
  JsonValue value;
};

/// Append-only JSONL event sink. Thread-safe: each event is formatted into
/// a buffer first and written with one fwrite under the writer's mutex,
/// then flushed, so concurrent producers never tear a line and a reader
/// tailing the file sees complete events promptly.
class TraceWriter {
 public:
  /// Opens (truncates) `path`. Throws esched::Error when it cannot.
  explicit TraceWriter(const std::string& path);
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  ~TraceWriter();

  /// Emits {"t": <seconds since construction>, "ev": type, "pid": <pid>,
  /// "seq": <per-writer monotonic>, ...fields}.
  void event(const char* type, std::initializer_list<TraceField> fields = {});
  /// Same, for call sites that assemble fields dynamically (span events).
  void event(const char* type, const std::vector<TraceField>& fields);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_;
  std::chrono::steady_clock::time_point start_;
  long pid_;
  std::atomic<std::uint64_t> seq_{0};
  std::mutex mutex_;
};

/// Installs `writer` (may be nullptr) as the process-global trace sink.
/// The caller keeps ownership and must clear the sink before destroying
/// the writer. Returns the previous sink.
TraceWriter* set_global_trace(TraceWriter* writer);

/// The current sink, or nullptr when tracing is off. Producers use
///   if (TraceWriter* t = global_trace()) t->event("point_done", {...});
/// so a disabled trace costs one relaxed load.
TraceWriter* global_trace();

/// Opens a span on the global sink: emits span_begin carrying a fresh
/// per-process span id, the parent id, and `name`, then pushes the id on
/// this THREAD's span stack so nested spans parent automatically. Pass a
/// nonzero `parent` to attach under a span opened on another thread (the
/// sweep runner does this for point spans solved on pool threads).
/// Returns 0 — and emits nothing — when tracing is off.
std::uint64_t trace_span_begin(const char* name,
                               std::initializer_list<TraceField> fields = {},
                               std::uint64_t parent = 0);

/// Closes `span_id`: pops it from this thread's span stack and emits
/// span_end. A 0 id (span opened while tracing was off) is a no-op.
void trace_span_end(std::uint64_t span_id, const char* name);

/// RAII span: begin on construction, end at scope exit. The span
/// vocabulary (worker → chunk → sweep → point → solve) is documented in
/// README "Observability"; `esched trace report` rebuilds the tree.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     std::initializer_list<TraceField> fields = {},
                     std::uint64_t parent = 0)
      : name_(name), id_(trace_span_begin(name, fields, parent)) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() { trace_span_end(id_, name_); }

  /// This span's id, for explicit cross-thread parenting (0 = tracing
  /// was off when the span opened).
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_;
};

}  // namespace esched
