#include "obs/obs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace psph::obs {

namespace {

// Per-thread recording state. Owned jointly by the recording thread (its
// thread_local shared_ptr) and the registry, so state written by a thread
// that has since exited (e.g. a resized ThreadPool's workers) still merges
// into snapshots. The owning thread holds `mutex` while it writes and
// snapshot()/reset() while they read or clear, so it is contended only
// when a reader runs.
struct ThreadState {
  std::mutex mutex;
  int tid = 0;
  std::vector<std::uint64_t> counters;  // indexed by Counter id

  struct GaugeCell {
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t last_seq = 0;  // global sequence of the latest sample
  };
  std::vector<GaugeCell> gauges;  // indexed by Gauge id

  struct SpanAgg {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };
  std::vector<SpanAgg> span_aggs;
  std::unordered_map<const void*, std::size_t> span_index;  // name ptr → agg

  struct Event {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    std::int64_t arg;
  };
  std::vector<Event> events;
  std::uint64_t events_dropped = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadState>> threads;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::atomic<std::uint64_t> gauge_seq{1};
  std::atomic<std::size_t> event_capacity{std::size_t{1} << 20};
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

// Leaked on purpose: thread_local destructors of late-exiting threads and
// atexit-time flushes may run after static destruction would have torn the
// registry down.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

thread_local ThreadState* t_state = nullptr;
// Keeps the shared_ptr alive for the thread's lifetime; the registry holds
// the other reference.
thread_local std::shared_ptr<ThreadState> t_state_owner;

ThreadState& state() {
  if (t_state == nullptr) {
    auto fresh = std::make_shared<ThreadState>();
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    fresh->tid = static_cast<int>(reg.threads.size());
    reg.threads.push_back(fresh);
    t_state_owner = std::move(fresh);
    t_state = t_state_owner.get();
  }
  return *t_state;
}

template <typename T>
void grow_to(std::vector<T>& cells, std::size_t id) {
  if (cells.size() <= id) cells.resize(id + 1);
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string pretty_ns(std::uint64_t ns) {
  char buf[32];
  const double v = static_cast<double>(ns);
  if (ns < 10'000ULL) {
    std::snprintf(buf, sizeof(buf), "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fus", v / 1e3);
  } else if (ns < 10'000'000'000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fms", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", v / 1e9);
  }
  return buf;
}

}  // namespace

namespace detail {

std::atomic<int> g_enabled{-1};

int resolve_enabled() {
  int value = 1;
  const char* raw = std::getenv("PSPH_OBS");
  if (raw != nullptr && std::strcmp(raw, "0") == 0) value = 0;
  int expected = -1;
  if (!g_enabled.compare_exchange_strong(expected, value,
                                         std::memory_order_relaxed)) {
    value = expected;  // a concurrent resolve or set_enabled won
  }
  return value;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - registry().epoch)
          .count());
}

void record_span(const char* name, std::uint64_t start_ns,
                 std::uint64_t end_ns, std::int64_t arg) {
  const std::uint64_t dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  ThreadState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);

  const auto [it, inserted] =
      s.span_index.try_emplace(name, s.span_aggs.size());
  if (inserted) {
    s.span_aggs.push_back({name, 1, dur, dur, dur});
  } else {
    ThreadState::SpanAgg& agg = s.span_aggs[it->second];
    ++agg.count;
    agg.total_ns += dur;
    agg.min_ns = std::min(agg.min_ns, dur);
    agg.max_ns = std::max(agg.max_ns, dur);
  }

  if (s.events.size() <
      registry().event_capacity.load(std::memory_order_relaxed)) {
    s.events.push_back({name, start_ns, dur, arg});
  } else {
    ++s.events_dropped;
  }
}

}  // namespace detail

void record_span_since(const char* name,
                       std::chrono::steady_clock::time_point start) {
  if (!enabled()) return;
  const std::int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                           registry().epoch)
          .count();
  detail::record_span(name,
                      static_cast<std::uint64_t>(std::max<std::int64_t>(
                          start_ns, 0)),
                      detail::now_ns(), SpanTimer::kNoArg);
}

void set_enabled(bool on) {
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_event_capacity(std::size_t cap) {
  registry().event_capacity.store(cap, std::memory_order_relaxed);
}

void reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (const std::shared_ptr<ThreadState>& s : reg.threads) {
    std::lock_guard<std::mutex> thread_lock(s->mutex);
    std::fill(s->counters.begin(), s->counters.end(), 0);
    std::fill(s->gauges.begin(), s->gauges.end(),
              ThreadState::GaugeCell{});
    s->span_aggs.clear();
    s->span_index.clear();
    s->events.clear();
    s->events_dropped = 0;
  }
}

Counter::Counter(const char* name) : name_(name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  id_ = reg.counter_names.size();
  reg.counter_names.emplace_back(name);
}

void Counter::add(std::uint64_t delta) {
  if (!enabled()) return;
  ThreadState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  grow_to(s.counters, id_);
  s.counters[id_] += delta;
}

Gauge::Gauge(const char* name) : name_(name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  id_ = reg.gauge_names.size();
  reg.gauge_names.emplace_back(name);
}

void Gauge::set(double value) {
  if (!enabled()) return;
  Registry& reg = registry();
  ThreadState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  grow_to(s.gauges, id_);
  ThreadState::GaugeCell& cell = s.gauges[id_];
  if (cell.samples == 0) {
    cell.min = cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  cell.last = value;
  cell.sum += value;
  ++cell.samples;
  cell.last_seq = reg.gauge_seq.fetch_add(1, std::memory_order_relaxed);
}

Snapshot snapshot() {
  Registry& reg = registry();
  Snapshot snap;
  std::unordered_map<std::string, std::size_t> span_rows;
  std::vector<std::uint64_t> counter_totals;
  struct MergedGauge {
    GaugeStat stat;
    std::uint64_t last_seq = 0;
  };
  std::vector<MergedGauge> gauge_totals;

  std::lock_guard<std::mutex> lock(reg.mutex);
  counter_totals.assign(reg.counter_names.size(), 0);
  gauge_totals.resize(reg.gauge_names.size());

  for (const std::shared_ptr<ThreadState>& s : reg.threads) {
    std::lock_guard<std::mutex> thread_lock(s->mutex);
    for (std::size_t i = 0; i < s->counters.size(); ++i) {
      counter_totals[i] += s->counters[i];
    }
    for (std::size_t i = 0; i < s->gauges.size(); ++i) {
      const ThreadState::GaugeCell& cell = s->gauges[i];
      if (cell.samples == 0) continue;
      MergedGauge& merged = gauge_totals[i];
      if (merged.stat.samples == 0) {
        merged.stat.min = cell.min;
        merged.stat.max = cell.max;
      } else {
        merged.stat.min = std::min(merged.stat.min, cell.min);
        merged.stat.max = std::max(merged.stat.max, cell.max);
      }
      merged.stat.sum += cell.sum;
      merged.stat.samples += cell.samples;
      if (cell.last_seq >= merged.last_seq) {
        merged.last_seq = cell.last_seq;
        merged.stat.last = cell.last;
      }
    }
    for (const ThreadState::SpanAgg& agg : s->span_aggs) {
      const std::string name = agg.name;
      const auto [it, inserted] = span_rows.try_emplace(name,
                                                        snap.spans.size());
      if (inserted) {
        snap.spans.push_back(
            {name, agg.count, agg.total_ns, agg.min_ns, agg.max_ns});
      } else {
        SpanStat& row = snap.spans[it->second];
        row.count += agg.count;
        row.total_ns += agg.total_ns;
        row.min_ns = std::min(row.min_ns, agg.min_ns);
        row.max_ns = std::max(row.max_ns, agg.max_ns);
      }
    }
    for (const ThreadState::Event& event : s->events) {
      snap.events.push_back(
          {event.name, s->tid, event.start_ns, event.dur_ns, event.arg});
    }
    snap.events_dropped += s->events_dropped;
  }

  for (std::size_t i = 0; i < counter_totals.size(); ++i) {
    if (counter_totals[i] == 0) continue;
    snap.counters.push_back({reg.counter_names[i], counter_totals[i]});
  }
  for (std::size_t i = 0; i < gauge_totals.size(); ++i) {
    if (gauge_totals[i].stat.samples == 0) continue;
    GaugeStat stat = gauge_totals[i].stat;
    stat.name = reg.gauge_names[i];
    snap.gauges.push_back(std::move(stat));
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.spans.begin(), snap.spans.end(), by_name);
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.events.begin(), snap.events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.tid != b.tid ? a.tid < b.tid
                                    : a.start_ns < b.start_ns;
            });
  return snap;
}

std::string stats_table() {
  const Snapshot snap = snapshot();
  std::ostringstream out;
  out << "=== psph_obs stats ===\n";
  if (!snap.spans.empty()) {
    out << "span                                          count      total"
           "        avg        max\n";
    for (const SpanStat& s : snap.spans) {
      char line[160];
      const std::uint64_t avg = s.count == 0 ? 0 : s.total_ns / s.count;
      std::snprintf(line, sizeof(line), "  %-42s %7llu %10s %10s %10s\n",
                    s.name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    pretty_ns(s.total_ns).c_str(), pretty_ns(avg).c_str(),
                    pretty_ns(s.max_ns).c_str());
      out << line;
    }
  }
  if (!snap.counters.empty()) {
    out << "counter                                       value\n";
    for (const CounterStat& c : snap.counters) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-42s %7llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      out << line;
    }
  }
  if (!snap.gauges.empty()) {
    out << "gauge                                          last        min"
           "        max        avg\n";
    for (const GaugeStat& g : snap.gauges) {
      char line[200];
      const double avg =
          g.samples == 0 ? 0.0 : g.sum / static_cast<double>(g.samples);
      std::snprintf(line, sizeof(line),
                    "  %-42s %9.3g %10.3g %10.3g %10.3g\n", g.name.c_str(),
                    g.last, g.min, g.max, avg);
      out << line;
    }
  }
  if (snap.events_dropped != 0) {
    out << "(" << snap.events_dropped
        << " trace events dropped past the per-thread cap)\n";
  }
  if (snap.spans.empty() && snap.counters.empty() && snap.gauges.empty()) {
    out << "(nothing recorded";
    if (!enabled()) out << "; instrumentation is disabled, see PSPH_OBS";
    out << ")\n";
  }
  return out.str();
}

std::string trace_json() {
  const Snapshot snap = snapshot();
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"psph\"}}";

  int max_tid = -1;
  for (const TraceEvent& e : snap.events) max_tid = std::max(max_tid, e.tid);
  for (int tid = 0; tid <= max_tid; ++tid) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << tid << ",\"args\":{\"name\":\""
        << (tid == 0 ? std::string("main") :
                       "thread-" + std::to_string(tid))
        << "\"}}";
  }

  char num[64];
  for (const TraceEvent& e : snap.events) {
    out << ",\n{\"name\":\"" << json_escape(e.name)
        << "\",\"cat\":\"psph\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid;
    std::snprintf(num, sizeof(num), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    out << num;
    if (e.arg != SpanTimer::kNoArg) {
      out << ",\"args\":{\"v\":" << e.arg << "}";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

bool write_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = trace_json();
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace psph::obs
