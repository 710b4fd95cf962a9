// psph_obs unit tests: deterministic cross-thread aggregation, snapshots
// taken while other threads record, the PSPH_OBS=0 gate, reset semantics,
// the per-thread event cap, and a round-trip of the Chrome trace JSON
// through a minimal JSON parser.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace psph;

// ------------------------------------------------- minimal JSON parser --
//
// Just enough JSON to validate trace_event output structurally: objects,
// arrays, strings (with escapes), numbers, booleans, null. Returns nullopt
// on any syntax error, so a malformed trace fails the test rather than
// sliding through a substring check.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> parse() {
    JsonValue value;
    skip_ws();
    if (!parse_value(&value)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return parse_string(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return parse_literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return parse_literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return parse_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(const char* literal) {
    for (const char* c = literal; *c; ++c) {
      if (!consume(*c)) return false;
    }
    return true;
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char escape = text_[pos_++];
        switch (escape) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            pos_ += 4;  // structural validation only; keep a placeholder
            c = '?';
            break;
          default:
            return false;
        }
      }
      out->push_back(c);
    }
    return consume('"');
  }

  bool parse_array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      JsonValue element;
      skip_ws();
      if (!parse_value(&element)) return false;
      out->array.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool parse_object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      std::string key;
      skip_ws();
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------ fixtures --

const obs::SpanStat* find_span(const obs::Snapshot& snapshot,
                               const std::string& name) {
  for (const obs::SpanStat& span : snapshot.spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

const obs::CounterStat* find_counter(const obs::Snapshot& snapshot,
                                     const std::string& name) {
  for (const obs::CounterStat& counter : snapshot.counters) {
    if (counter.name == name) return &counter;
  }
  return nullptr;
}

const obs::GaugeStat* find_gauge(const obs::Snapshot& snapshot,
                                 const std::string& name) {
  for (const obs::GaugeStat& gauge : snapshot.gauges) {
    if (gauge.name == name) return &gauge;
  }
  return nullptr;
}

// Every test starts from a clean, enabled recorder and leaves it that way
// (the library state is process-global).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::set_event_capacity(std::size_t{1} << 20);
    obs::reset();
  }
  void TearDown() override {
    obs::set_enabled(true);
    obs::set_event_capacity(std::size_t{1} << 20);
    obs::reset();
  }
};

// --------------------------------------------------------------- tests --

TEST_F(ObsTest, CounterTotalsAreExactAcrossThreads) {
  obs::Counter counter("obs_test.cross_thread");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 1000;
  constexpr std::uint64_t kDelta = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add(kDelta);
    });
  }
  for (std::thread& t : threads) t.join();
  counter.add(1);  // main thread participates too

  const obs::Snapshot snapshot = obs::snapshot();
  const obs::CounterStat* stat = find_counter(snapshot, "obs_test.cross_thread");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->value,
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread * kDelta + 1);
}

TEST_F(ObsTest, SpanAggregatesMergeByNameAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::SpanTimer span("obs_test.worker_span");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const obs::Snapshot snapshot = obs::snapshot();
  const obs::SpanStat* stat = find_span(snapshot, "obs_test.worker_span");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count,
            static_cast<std::uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_LE(stat->min_ns, stat->max_ns);
  EXPECT_GE(stat->total_ns, stat->max_ns);
}

TEST_F(ObsTest, GaugeMergesLastMinMaxAndMean) {
  obs::Gauge gauge("obs_test.gauge");
  std::thread first([&gauge] { gauge.set(10.0); });
  first.join();
  std::thread second([&gauge] { gauge.set(2.0); });
  second.join();
  gauge.set(4.0);  // globally most recent sample

  const obs::Snapshot snapshot = obs::snapshot();
  const obs::GaugeStat* stat = find_gauge(snapshot, "obs_test.gauge");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->samples, 3u);
  EXPECT_DOUBLE_EQ(stat->last, 4.0);
  EXPECT_DOUBLE_EQ(stat->min, 2.0);
  EXPECT_DOUBLE_EQ(stat->max, 10.0);
  EXPECT_DOUBLE_EQ(stat->sum, 16.0);
}

TEST_F(ObsTest, SnapshotWhileRecordingIsSafeAndExactAfterJoin) {
  obs::Counter counter("obs_test.live_counter");
  obs::Gauge gauge("obs_test.live_gauge");
  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 20000;
  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        obs::SpanTimer span("obs_test.live_span", t);
        counter.add(1);
        gauge.set(static_cast<double>(i));
      }
      running.fetch_sub(1);
    });
  }

  // Snapshots taken while the writers record: each thread's cells are
  // read under its lock, so the merged counter can only grow.
  std::uint64_t last = 0;
  int snapshots = 0;
  do {
    const obs::Snapshot live = obs::snapshot();
    const obs::CounterStat* stat = find_counter(live, "obs_test.live_counter");
    const std::uint64_t now = stat == nullptr ? 0 : stat->value;
    EXPECT_GE(now, last);
    last = now;
    ++snapshots;
  } while (running.load() > 0);
  for (std::thread& writer : writers) writer.join();
  EXPECT_GT(snapshots, 0);

  const std::uint64_t total =
      static_cast<std::uint64_t>(kWriters) * kRecordsPerWriter;
  const obs::Snapshot done = obs::snapshot();
  ASSERT_NE(find_counter(done, "obs_test.live_counter"), nullptr);
  EXPECT_EQ(find_counter(done, "obs_test.live_counter")->value, total);
  ASSERT_NE(find_span(done, "obs_test.live_span"), nullptr);
  EXPECT_EQ(find_span(done, "obs_test.live_span")->count, total);
  ASSERT_NE(find_gauge(done, "obs_test.live_gauge"), nullptr);
  EXPECT_EQ(find_gauge(done, "obs_test.live_gauge")->samples, total);
  EXPECT_DOUBLE_EQ(find_gauge(done, "obs_test.live_gauge")->max,
                   kRecordsPerWriter - 1);
}

TEST_F(ObsTest, DisabledRecordsNothing) {
  obs::set_enabled(false);
  obs::Counter counter("obs_test.disabled_counter");
  obs::Gauge gauge("obs_test.disabled_gauge");
  {
    obs::SpanTimer span("obs_test.disabled_span", 7);
  }
  counter.add(5);
  gauge.set(1.0);
  obs::set_enabled(true);

  const obs::Snapshot snapshot = obs::snapshot();
  EXPECT_EQ(find_span(snapshot, "obs_test.disabled_span"), nullptr);
  EXPECT_EQ(find_counter(snapshot, "obs_test.disabled_counter"), nullptr);
  EXPECT_EQ(find_gauge(snapshot, "obs_test.disabled_gauge"), nullptr);
  EXPECT_TRUE(snapshot.events.empty());
}

TEST_F(ObsTest, ResetClearsValuesButKeepsRegistrations) {
  obs::Counter counter("obs_test.reset_counter");
  counter.add(9);
  {
    obs::SpanTimer span("obs_test.reset_span");
  }
  ASSERT_NE(find_counter(obs::snapshot(), "obs_test.reset_counter"), nullptr);

  obs::reset();
  const obs::Snapshot cleared = obs::snapshot();
  EXPECT_EQ(find_counter(cleared, "obs_test.reset_counter"), nullptr);
  EXPECT_EQ(find_span(cleared, "obs_test.reset_span"), nullptr);
  EXPECT_TRUE(cleared.events.empty());

  // The registration survives: the same object keeps recording.
  counter.add(2);
  const obs::Snapshot after = obs::snapshot();
  const obs::CounterStat* stat = find_counter(after, "obs_test.reset_counter");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->value, 2u);
}

TEST_F(ObsTest, EventCapDropsTimelineEventsButNotAggregates) {
  obs::set_event_capacity(8);
  constexpr int kSpans = 100;
  for (int i = 0; i < kSpans; ++i) {
    obs::SpanTimer span("obs_test.capped");
  }
  const obs::Snapshot snapshot = obs::snapshot();
  const obs::SpanStat* stat = find_span(snapshot, "obs_test.capped");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, static_cast<std::uint64_t>(kSpans));
  EXPECT_LE(snapshot.events.size(), 8u);
  EXPECT_EQ(snapshot.events_dropped,
            static_cast<std::uint64_t>(kSpans) - snapshot.events.size());
}

TEST_F(ObsTest, TraceJsonRoundTripsThroughParser) {
  {
    obs::SpanTimer span("obs_test.trace_span", 42);
  }
  {
    obs::SpanTimer plain("obs_test.plain_span");
  }
  std::thread worker([] { obs::SpanTimer span("obs_test.thread_span"); });
  worker.join();

  const obs::Snapshot snapshot = obs::snapshot();
  const std::string json = obs::trace_json();
  const std::optional<JsonValue> parsed = JsonParser(json).parse();
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_EQ(parsed->kind, JsonValue::Kind::kObject);

  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  std::size_t complete_events = 0;
  std::size_t thread_names = 0;
  bool saw_arg = false;
  std::vector<std::string> names;
  for (const JsonValue& event : events->array) {
    ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(event.find("pid"), nullptr);
    ASSERT_NE(event.find("tid"), nullptr);
    const JsonValue* name = event.find("name");
    ASSERT_NE(name, nullptr);
    if (ph->string == "M") {
      if (name->string == "thread_name") ++thread_names;
      continue;
    }
    ASSERT_EQ(ph->string, "X");
    ++complete_events;
    names.push_back(name->string);
    const JsonValue* ts = event.find("ts");
    const JsonValue* dur = event.find("dur");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    EXPECT_EQ(ts->kind, JsonValue::Kind::kNumber);
    EXPECT_EQ(dur->kind, JsonValue::Kind::kNumber);
    EXPECT_GE(dur->number, 0.0);
    if (name->string == "obs_test.trace_span") {
      const JsonValue* args = event.find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue* v = args->find("v");
      ASSERT_NE(v, nullptr);
      EXPECT_DOUBLE_EQ(v->number, 42.0);
      saw_arg = true;
    }
  }

  // Every recorded timeline event appears exactly once, both recording
  // threads have name metadata, and the span arg survived the round trip.
  EXPECT_EQ(complete_events, snapshot.events.size());
  EXPECT_GE(thread_names, 2u);
  EXPECT_TRUE(saw_arg);
  EXPECT_NE(std::find(names.begin(), names.end(), "obs_test.plain_span"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "obs_test.thread_span"),
            names.end());
}

TEST_F(ObsTest, StatsTableListsRecordedInstruments) {
  obs::Counter counter("obs_test.table_counter");
  counter.add(3);
  {
    obs::SpanTimer span("obs_test.table_span");
  }
  const std::string table = obs::stats_table();
  EXPECT_NE(table.find("obs_test.table_counter"), std::string::npos);
  EXPECT_NE(table.find("obs_test.table_span"), std::string::npos);
}

TEST_F(ObsTest, WriteTraceCreatesParsableFile) {
  {
    obs::SpanTimer span("obs_test.file_span");
  }
  const std::string path =
      ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(obs::write_trace(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  const std::optional<JsonValue> parsed = JsonParser(contents).parse();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->find("traceEvents"), nullptr);
}

}  // namespace
