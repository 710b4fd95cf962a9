#pragma once

// psph_obs: low-overhead instrumentation for the hot paths (DESIGN §5.12).
//
// Three primitives, all safe to call from any thread:
//
//   * SpanTimer — RAII scoped timer. Each completed span is aggregated
//     per name (count / total / min / max) and, up to a per-thread event
//     cap, recorded as a timeline event for the Chrome trace.
//   * Counter   — monotonic 64-bit counter, summed across threads.
//   * Gauge     — sampled value; the snapshot reports last / min / max /
//     mean across all samples from all threads.
//
// Recording is per-thread: every thread writes only its own cells, under a
// per-thread mutex that only a reader ever contends for, so totals are
// exact and deterministic once the writing threads have finished (joined,
// or drained through the util::ThreadPool barrier).
// snapshot()/stats_table()/trace_json() merge the per-thread state and may
// be called at any time, also while other threads record (a live daemon
// renders its `stats` request this way); each thread's cells are read
// under its mutex, so counters never go backwards between snapshots.
//
// The layer is runtime-gated: PSPH_OBS=0 in the environment (or
// set_enabled(false)) turns every primitive into a single relaxed load and
// branch — no clock reads, no TLS growth, nothing recorded. The perf
// acceptance bar is that a PSPH_OBS=0 run is indistinguishable from an
// uninstrumented build (see BM_ObsSpanDisabled in bench/perf_complexes).
//
// Names must be string literals (or otherwise outlive the process): the
// recorder stores the pointer, not a copy. Aggregation is by string value
// at snapshot time, so the same name used from different translation units
// folds into one row.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace psph::obs {

namespace detail {
// -1 = not yet resolved from the PSPH_OBS environment variable.
extern std::atomic<int> g_enabled;
int resolve_enabled();
std::uint64_t now_ns();
void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::int64_t arg);
}  // namespace detail

/// True when instrumentation records. Resolved once from PSPH_OBS
/// (anything except "0" — including unset — enables) unless overridden by
/// set_enabled(). The fast path is one relaxed atomic load.
inline bool enabled() {
  const int e = detail::g_enabled.load(std::memory_order_relaxed);
  return e >= 0 ? e != 0 : detail::resolve_enabled() != 0;
}

/// Overrides the environment resolution (tests, tools).
void set_enabled(bool on);

/// Drops every recorded span, event, counter value, and gauge sample.
/// Counter/Gauge registrations survive.
void reset();

/// Caps timeline events recorded per thread (aggregates are never capped);
/// excess spans still count in the stats table but are dropped from the
/// trace and tallied in the "obs.events_dropped" counter. Default 1<<20.
/// Test hook; applies to events recorded after the call.
void set_event_capacity(std::size_t cap);

/// Monotonic counter. Cheap enough for per-item hot loops: one branch plus,
/// when enabled, an uncontended lock and a TLS array add. Typically
/// declared as a namespace-scope or function-local static.
class Counter {
 public:
  explicit Counter(const char* name);
  void add(std::uint64_t delta = 1);
  const char* name() const { return name_; }

 private:
  const char* name_;
  std::size_t id_;
};

/// Sampled value (queue depths, hit rates, sizes). The merged "last" is
/// the globally most recent sample, ordered by a process-wide sequence.
class Gauge {
 public:
  explicit Gauge(const char* name);
  void set(double value);
  const char* name() const { return name_; }

 private:
  const char* name_;
  std::size_t id_;
};

/// RAII scoped timer. `arg` is an optional small integer rendered into the
/// trace event's args (e.g. the homology dimension a span covers).
class SpanTimer {
 public:
  static constexpr std::int64_t kNoArg = INT64_MIN;

  explicit SpanTimer(const char* name, std::int64_t arg = kNoArg)
      : name_(name), arg_(arg) {
    start_ns_ = enabled() ? detail::now_ns() : kInactive;
  }
  ~SpanTimer() {
    if (start_ns_ != kInactive) {
      detail::record_span(name_, start_ns_, detail::now_ns(), arg_);
    }
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  static constexpr std::uint64_t kInactive = UINT64_MAX;
  const char* name_;
  std::int64_t arg_;
  std::uint64_t start_ns_;
};

/// Records one completed span from `start` (a steady_clock reading taken
/// earlier, e.g. a request's admission) to now — for intervals that no
/// single scope spans, where a SpanTimer cannot be held.
void record_span_since(const char* name,
                       std::chrono::steady_clock::time_point start);

// ---------------------------------------------------------------- flush --

struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;
  std::uint64_t max_ns = 0;
};

struct CounterStat {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeStat {
  std::string name;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  std::uint64_t samples = 0;
};

struct TraceEvent {
  std::string name;
  int tid = 0;             // registration order of the recording thread
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::int64_t arg = SpanTimer::kNoArg;
};

/// Everything recorded so far, merged across threads. Rows sorted by name;
/// events sorted by (tid, start). Zero-count rows are omitted.
struct Snapshot {
  std::vector<SpanStat> spans;
  std::vector<CounterStat> counters;
  std::vector<GaugeStat> gauges;
  std::vector<TraceEvent> events;
  std::uint64_t events_dropped = 0;
};

Snapshot snapshot();

/// Human-readable aggregate table ("--stats" output).
std::string stats_table();

/// Chrome trace_event JSON ({"traceEvents":[...]}), loadable in
/// chrome://tracing and Perfetto. Complete ("ph":"X") events with
/// microsecond timestamps, one tid per recording thread, plus thread-name
/// metadata.
std::string trace_json();

/// Writes trace_json() to `path`; false (with errno intact) on I/O error.
bool write_trace(const std::string& path);

}  // namespace psph::obs
