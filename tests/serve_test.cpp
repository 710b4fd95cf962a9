// Tests for the serving layer (src/serve): JSON strictness, wire framing
// under torn/oversized/garbage input, request validation, and the daemon
// core — bit-identical responses vs the batch compute path, coalescing of
// identical in-flight queries, bounded-queue admission control, and
// per-query deadlines (expired-in-queue and cancelled-while-running).

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/store.h"
#include "util/random.h"

namespace psph::serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("psph_serve_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// ---------------------------------------------------------------- json --

TEST(Json, RoundTripsTypesExactly) {
  const std::string text =
      "{\"a\":1,\"b\":-2.5,\"c\":\"x\\n\",\"d\":[true,false,null],"
      "\"e\":{\"nested\":9223372036854775807}}";
  const Json value = Json::parse(text);
  EXPECT_EQ(value.get("a")->as_int(), 1);
  EXPECT_TRUE(value.get("b")->is_double());
  EXPECT_EQ(value.get("c")->as_string(), "x\n");
  EXPECT_EQ(value.get("d")->items().size(), 3u);
  EXPECT_EQ(value.get("e")->get("nested")->as_int(),
            std::numeric_limits<std::int64_t>::max());
  // dump → parse → dump is a fixed point (deterministic rendering).
  const std::string once = value.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",          "{",        "[1,",       "{\"a\":}",  "tru",
      "01",        "1.",       "\"\\q\"",   "\"\x01\"",  "{\"a\":1}x",
      "nan",       "[1]]",     "{\"a\" 1}", "--1",       "\"\\ud800\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW(Json::parse(text), JsonError) << "input: " << text;
  }
}

TEST(Json, DepthLimitStopsAdversarialNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
}

// ---------------------------------------------------------------- wire --

TEST(Wire, FramesRoundTripAndCleanCloseIsDistinct) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], "{\"x\":1}");
  write_frame(fds[0], "");
  std::string payload;
  EXPECT_EQ(read_frame(fds[1], &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "{\"x\":1}");
  EXPECT_EQ(read_frame(fds[1], &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "");
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], &payload), FrameStatus::kClosed);
  ::close(fds[1]);
}

TEST(Wire, OversizedAnnouncementIsRejectedWithoutAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t header[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  std::string payload;
  EXPECT_THROW(read_frame(fds[1], &payload), WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, TornFramesThrowInsteadOfHanging) {
  // Torn header.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t half_header[2] = {10, 0};
  ASSERT_EQ(::write(fds[0], half_header, 2), 2);
  ::close(fds[0]);
  std::string payload;
  EXPECT_THROW(read_frame(fds[1], &payload), WireError);
  ::close(fds[1]);

  // Torn payload: header promises 100 bytes, 3 arrive.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  ASSERT_EQ(::write(fds[0], "abc", 3), 3);
  ::close(fds[0]);
  EXPECT_THROW(read_frame(fds[1], &payload), WireError);
  ::close(fds[1]);
}

// ------------------------------------------------------------ protocol --

Json make_request(std::int64_t id, const std::string& kind,
                  const std::string& model) {
  Json request = Client::request(id, kind);
  request.set("model", Json::string(model));
  return request;
}

TEST(Protocol, ValidatesAndNormalizes) {
  Json request = make_request(1, "connectivity", "async");
  request.set("processes", Json::integer(4));
  request.set("f", Json::integer(1));
  request.set("k", Json::integer(3));   // irrelevant for async connectivity
  request.set("mu", Json::integer(5));  // irrelevant too
  const ParsedRequest a = parse_request(request);
  ASSERT_TRUE(a.query.has_value()) << a.error->message;
  request.set("k", Json::integer(1));
  request.set("mu", Json::integer(9));
  const ParsedRequest b = parse_request(request);
  ASSERT_TRUE(b.query.has_value());
  // Normalization zeroes unused fields, so the cache keys — and therefore
  // coalescing — agree.
  EXPECT_EQ(cache_key(*a.query).key().hex(), cache_key(*b.query).key().hex());

  const char* rejected[] = {
      "{\"kind\":\"connectivity\",\"model\":\"byzantine\"}",
      "{\"kind\":\"warp\"}",
      "{\"kind\":\"decide\",\"model\":\"pseudosphere\"}",
      "{\"kind\":\"connectivity\",\"processes\":99}",
      "{\"kind\":\"connectivity\",\"processes\":3,\"participants\":5}",
      "{\"kind\":\"connectivity\",\"f\":3,\"processes\":3}",
      "{\"kind\":\"connectivity\",\"model\":\"pseudosphere\"}",
      "{\"kind\":\"homology\",\"deadline_ms\":-5}",
      "{\"id\":\"seven\",\"kind\":\"ping\"}",
      "[1,2,3]",
  };
  for (const char* text : rejected) {
    const ParsedRequest parsed = parse_request(Json::parse(text));
    EXPECT_TRUE(parsed.error.has_value()) << text;
    EXPECT_EQ(parsed.error->code, "bad_request") << text;
  }
}

TEST(Protocol, ConstructionBackendIsValidatedAndScoped) {
  const ParsedRequest bad_value = parse_request(Json::parse(
      R"({"kind":"complex_stats","model":"async","construction":"fast"})"));
  ASSERT_TRUE(bad_value.error.has_value());
  EXPECT_EQ(bad_value.error->code, "bad_request");

  // Kinds that never consume the backend normalize it away, so a stray
  // construction field cannot split the cache key or defeat coalescing.
  const auto connectivity = [](const char* construction) {
    Json request = make_request(1, "connectivity", "async");
    request.set("processes", Json::integer(3)).set("f", Json::integer(1));
    if (construction != nullptr) {
      request.set("construction", Json::string(construction));
    }
    const ParsedRequest parsed = parse_request(request);
    EXPECT_TRUE(parsed.query.has_value());
    return cache_key(*parsed.query).key().hex();
  };
  EXPECT_EQ(connectivity(nullptr), connectivity("orbit"));

  // complex_stats does consume it: full and orbit must cache separately.
  const auto stats = [](const char* construction) {
    Json request = make_request(1, "complex_stats", "async");
    request.set("processes", Json::integer(3)).set("f", Json::integer(1));
    if (construction != nullptr) {
      request.set("construction", Json::string(construction));
    }
    const ParsedRequest parsed = parse_request(request);
    EXPECT_TRUE(parsed.query.has_value());
    return cache_key(*parsed.query).key().hex();
  };
  EXPECT_EQ(stats(nullptr), stats("full"));
  EXPECT_NE(stats("full"), stats("orbit"));

  // Pseudospheres have no round structure to quotient: orbit normalizes
  // back to full rather than erroring.
  Json request = make_request(1, "complex_stats", "pseudosphere");
  Json sizes = Json::array();
  sizes.push(Json::integer(2)).push(Json::integer(2));
  request.set("sizes", std::move(sizes));
  request.set("construction", Json::string("orbit"));
  const ParsedRequest parsed = parse_request(request);
  ASSERT_TRUE(parsed.query.has_value());
  EXPECT_EQ(parsed.query->construction, "full");
}

TEST(Queries, OrbitBackendMatchesFullBackendValueForValue) {
  for (const std::string model : {"async", "sync", "semisync"}) {
    Query full;
    full.kind = QueryKind::kComplexStats;
    full.model = model;
    full.processes = 3;
    full.participants = 3;
    full.f = 1;
    full.k = 1;
    full.mu = 2;
    full.rounds = 2;
    Query orbit = full;
    orbit.construction = "orbit";

    const Json a = execute_query(full, nullptr).body;
    const Json b = execute_query(orbit, nullptr).body;
    for (const char* field : {"facets", "vertices", "dimension", "euler"}) {
      ASSERT_TRUE(a.get(field) != nullptr && b.get(field) != nullptr) << field;
      EXPECT_EQ(a.get(field)->as_int(), b.get(field)->as_int())
          << model << " " << field;
    }
    EXPECT_EQ(a.get("f_vector")->dump(), b.get("f_vector")->dump()) << model;
    ASSERT_TRUE(b.get("orbit") != nullptr) << model;
    EXPECT_EQ(b.get("orbit")->get("group_order")->as_int(), 6) << model;
    EXPECT_GT(b.get("orbit")->get("orbit_reps")->as_int(), 0) << model;
    EXPECT_LE(b.get("orbit")->get("reduced_facets")->as_int(),
              a.get("facets")->as_int())
        << model;
    EXPECT_EQ(a.get("orbit"), nullptr) << model;

    Query hfull = full;
    hfull.kind = QueryKind::kHomology;
    hfull.max_dim = 2;
    hfull.exact = true;
    Query horbit = hfull;
    horbit.construction = "orbit";
    EXPECT_EQ(execute_query(hfull, nullptr).body.dump(),
              execute_query(horbit, nullptr).body.dump())
        << model;
  }
}

// -------------------------------------------------------------- server --

/// Current value of an obs counter (0 when nothing was recorded).
std::uint64_t counter_value(const char* name) {
  for (const obs::CounterStat& stat : obs::snapshot().counters) {
    if (stat.name == name) return stat.value;
  }
  return 0;
}

/// The daemon's counters live in the process-wide obs registry, so every
/// server test starts from a clean, enabled recorder.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::reset();
  }

  void StartServer(ServerOptions options = {}) {
    options.socket_path = (dir_.path / "serve.sock").string();
    if (options.store_dir.empty()) {
      options.store_dir = (dir_.path / "store").string();
    }
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
    obs::set_enabled(true);
  }

  std::string socket_path() const { return (dir_.path / "serve.sock").string(); }

  /// Polls until the compute queue holds `depth` requests (staged tests
  /// pause the dispatcher first, so the depth can only grow).
  void WaitForQueueDepth(std::size_t depth) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const auto queue_depth = [] {
      for (const obs::GaugeStat& stat : obs::snapshot().gauges) {
        if (stat.name == "serve.queue_depth") return stat.last;
      }
      return 0.0;
    };
    while (queue_depth() < static_cast<double>(depth)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "queue never reached depth " << depth;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  TempDir dir_;
  std::unique_ptr<Server> server_;
};

/// The seven query shapes the protocol serves, one per (kind, model) family.
std::vector<Json> canonical_queries() {
  std::vector<Json> queries;
  {
    Json q = make_request(0, "connectivity", "async");
    q.set("processes", Json::integer(3)).set("f", Json::integer(1));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "connectivity", "sync");
    q.set("processes", Json::integer(3)).set("k", Json::integer(1));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "connectivity", "semisync");
    q.set("processes", Json::integer(3))
        .set("k", Json::integer(1))
        .set("mu", Json::integer(2));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "connectivity", "pseudosphere");
    Json sizes = Json::array();
    sizes.push(Json::integer(2)).push(Json::integer(2)).push(Json::integer(2));
    q.set("sizes", std::move(sizes));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "homology", "async");
    q.set("processes", Json::integer(3))
        .set("f", Json::integer(1))
        .set("max_dim", Json::integer(2))
        .set("exact", Json::boolean(true));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "complex_stats", "sync");
    q.set("processes", Json::integer(3)).set("k", Json::integer(1));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "decide", "async");
    q.set("processes", Json::integer(3))
        .set("f", Json::integer(1))
        .set("k", Json::integer(1));
    queries.push_back(q);
  }
  return queries;
}

TEST_F(ServeTest, ResponsesAreBitIdenticalToTheBatchPath) {
  StartServer();
  Client client(socket_path());
  std::int64_t next_id = 1;
  for (Json& request : canonical_queries()) {
    const ParsedRequest parsed = parse_request(request);
    ASSERT_TRUE(parsed.query.has_value()) << request.dump();

    request.set("id", Json::integer(next_id));
    const Json first = client.call(request);
    ASSERT_TRUE(first.get("ok")->as_bool()) << first.dump();
    EXPECT_EQ(first.get("id")->as_int(), next_id);
    EXPECT_FALSE(first.get("cached")->as_bool());

    // The batch path: same check_*/reduced_homology calls, same encoders.
    const std::vector<std::uint8_t> batch_sealed = compute_sealed(*parsed.query);
    EXPECT_EQ(first.get("result")->dump(),
              render_result(*parsed.query, batch_sealed).dump())
        << request.dump();

    // The store holds exactly the batch bytes.
    store::ResultStore mirror(server_->options().store_dir);
    const auto stored = mirror.load(cache_key(*parsed.query));
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, batch_sealed);

    // Second ask: served from the store, rendered identically.
    request.set("id", Json::integer(++next_id));
    const Json second = client.call(request);
    ASSERT_TRUE(second.get("ok")->as_bool());
    EXPECT_TRUE(second.get("cached")->as_bool());
    EXPECT_EQ(second.get("result")->dump(), first.get("result")->dump());
    ++next_id;
  }
}

TEST_F(ServeTest, IdenticalInFlightQueriesCoalesceIntoOneComputation) {
  StartServer();
  server_->pause_dispatch();

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Client>> clients;
  Json request = make_request(0, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(socket_path()));
    request.set("id", Json::integer(i + 1));
    clients.back()->send(request);
  }
  WaitForQueueDepth(kClients);
  server_->resume_dispatch();

  int coalesced_responses = 0;
  std::string body;
  for (int i = 0; i < kClients; ++i) {
    const Json response = clients[i]->recv();
    ASSERT_TRUE(response.get("ok")->as_bool()) << response.dump();
    EXPECT_EQ(response.get("id")->as_int(), i + 1);
    if (body.empty()) {
      body = response.get("result")->dump();
    } else {
      EXPECT_EQ(response.get("result")->dump(), body);
    }
    if (response.get("coalesced")->as_bool()) ++coalesced_responses;
  }
  EXPECT_EQ(coalesced_responses, kClients - 1);

  EXPECT_EQ(counter_value("serve.computed"), 1u);
  EXPECT_EQ(counter_value("serve.coalesced"),
            static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(counter_value("serve.cache_hits"), 0u);
}

TEST_F(ServeTest, FullQueueRejectsWithTypedOverloadedError) {
  ServerOptions options;
  options.queue_limit = 3;
  StartServer(std::move(options));
  server_->pause_dispatch();

  Client client(socket_path());
  for (int i = 1; i <= 5; ++i) {
    Json request = make_request(i, "connectivity", "pseudosphere");
    Json sizes = Json::array();
    // Distinct sizes per request: five different queries, no coalescing.
    sizes.push(Json::integer(1 + (i % 2))).push(Json::integer(i % 5 + 1));
    request.set("sizes", std::move(sizes));
    client.send(request);
  }

  // Requests 4 and 5 bounce immediately; 1..3 answer after the resume.
  std::vector<Json> responses;
  for (int i = 0; i < 2; ++i) responses.push_back(client.recv());
  server_->resume_dispatch();
  for (int i = 0; i < 3; ++i) responses.push_back(client.recv());

  int overloaded = 0, ok = 0;
  for (const Json& response : responses) {
    if (response.get("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(response.get("error")->get("code")->as_string(), "overloaded");
      EXPECT_GE(response.get("id")->as_int(), 4);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(overloaded, 2);
  EXPECT_EQ(counter_value("serve.overloaded"), 2u);
}

TEST_F(ServeTest, DeadlineExpiredWhileQueuedIsRejectedBeforeComputing) {
  StartServer();
  server_->pause_dispatch();
  Client client(socket_path());
  Json request = make_request(7, "connectivity", "async");
  request.set("processes", Json::integer(3))
      .set("f", Json::integer(1))
      .set("deadline_ms", Json::integer(40));
  client.send(request);
  WaitForQueueDepth(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server_->resume_dispatch();
  const Json response = client.recv();
  ASSERT_FALSE(response.get("ok")->as_bool());
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
  EXPECT_EQ(counter_value("serve.computed"), 0u);
}

TEST_F(ServeTest, RunningComputationIsCancelledCooperatively) {
  StartServer();
  Client client(socket_path());
  // Heavy enough that it cannot finish inside 1 ms; the engines' deadline
  // polls unwind it instead.
  Json request = make_request(8, "homology", "async");
  request.set("processes", Json::integer(5))
      .set("f", Json::integer(2))
      .set("rounds", Json::integer(2))
      .set("max_dim", Json::integer(3))
      .set("deadline_ms", Json::integer(1));
  const Json response = client.call(request);
  ASSERT_FALSE(response.get("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
}

TEST_F(ServeTest, DecideDeadlineFiresMidPropagationNotAsInternalError) {
  StartServer();
  Client client(socket_path());
  // The solvability engine's propagation loop polls the cooperative
  // deadline (the seed backtracker only polled every few thousand search
  // nodes), so a 1 ms budget on a heavy decide query must surface as
  // deadline_exceeded — never as an internal error, and never as a served
  // verdict.
  Json request = make_request(9, "decide", "async");
  request.set("processes", Json::integer(4))
      .set("f", Json::integer(2))
      .set("k", Json::integer(2))
      .set("deadline_ms", Json::integer(1));
  const Json response = client.call(request);
  ASSERT_FALSE(response.get("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
  // The abort left no cached verdict behind: the same query with no budget
  // computes the real answer (4 processes, f=2, k=2 is impossible by
  // Corollary 13 — k <= f — and the verdict must say so).
  request.set("id", Json::integer(10)).set("deadline_ms", Json::integer(0));
  const Json full = client.call(request);
  ASSERT_TRUE(full.get("ok")->as_bool()) << full.dump();
  EXPECT_TRUE(full.get("result")->get("impossible")->as_bool());
  EXPECT_TRUE(full.get("result")->get("search_exhausted")->as_bool());
}

TEST_F(ServeTest, AdminRequestsAnswerInline) {
  StartServer();
  Client client(socket_path());
  const Json pong = client.call(Client::request(1, "ping"));
  EXPECT_TRUE(pong.get("ok")->as_bool());

  Json request = make_request(2, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  ASSERT_TRUE(client.call(request).get("ok")->as_bool());
  client.call(request.set("id", Json::integer(3)));

  const Json stats = client.call(Client::request(4, "stats"));
  ASSERT_TRUE(stats.get("ok")->as_bool());
  const Json* result = stats.get("result");
  EXPECT_TRUE(result->get("obs_enabled")->as_bool());
  const Json* counters = result->get("counters");
  EXPECT_EQ(counters->get("serve.computed")->as_int(), 1);
  EXPECT_EQ(counters->get("serve.cache_hits")->as_int(), 1);
  EXPECT_EQ(counters->get("store.writes")->as_int(), 1);
  EXPECT_EQ(counters->get("store.hits")->as_int(), 1);
  EXPECT_EQ(result->get("spans")->get("serve.latency.connectivity")
                ->get("count")
                ->as_int(),
            2);
  EXPECT_EQ(result->get("gauges")->get("serve.in_flight")->get("last")
                ->as_double(),
            0.0);

  const Json bye = client.call(Client::request(5, "shutdown"));
  EXPECT_TRUE(bye.get("ok")->as_bool());
  EXPECT_TRUE(server_->wait_for_shutdown(/*poll_ms=*/5000));
}

TEST_F(ServeTest, StatsAnswerWhileQueriesAreInFlight) {
  StartServer();
  constexpr int kQueries = 200;
  Client client(socket_path());
  Json request = make_request(0, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  server_->pause_dispatch();
  for (int i = 1; i <= kQueries; ++i) {
    client.send(request.set("id", Json::integer(i)));
  }
  WaitForQueueDepth(kQueries);

  std::atomic<bool> done{false};
  std::atomic<int> probes{0};
  std::atomic<int> regressions{0};
  // A second connection polls `stats` while the first one's queries are
  // queued and computing: the snapshot is read under each recording
  // thread's lock, so the request counter it renders never goes backwards.
  std::thread poller([&] {
    try {
      Client probe(socket_path());
      std::int64_t last_requests = 0;
      do {
        const Json stats = probe.call(Client::request(probes + 1, "stats"));
        const Json* result = stats.get("result");
        const Json* counters =
            result == nullptr ? nullptr : result->get("counters");
        if (counters == nullptr) {
          regressions.fetch_add(1);
          return;
        }
        const Json* requests = counters->get("serve.requests");
        const std::int64_t now = requests == nullptr ? 0 : requests->as_int();
        if (now < last_requests) regressions.fetch_add(1);
        last_requests = now;
        probes.fetch_add(1);
      } while (!done.load());
    } catch (const std::exception&) {
      regressions.fetch_add(1);
    }
  });
  // The first probes are answered while all the queries sit queued.
  while (probes.load() < 2 && regressions.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->resume_dispatch();

  std::string body;
  for (int i = 1; i <= kQueries; ++i) {
    const Json response = client.recv();
    ASSERT_TRUE(response.get("ok")->as_bool()) << response.dump();
    if (body.empty()) body = response.get("result")->dump();
    EXPECT_EQ(response.get("result")->dump(), body);
  }
  done.store(true);
  poller.join();
  EXPECT_GT(probes.load(), 0);
  EXPECT_EQ(regressions.load(), 0);

  // Every query was answered exactly once: computed by the first group,
  // then read from the store or coalesced onto a group in its batch.
  EXPECT_EQ(counter_value("serve.computed"), 1u);
  EXPECT_EQ(counter_value("serve.computed") + counter_value("serve.cache_hits") +
                counter_value("serve.coalesced"),
            static_cast<std::uint64_t>(kQueries));
  EXPECT_GE(counter_value("serve.requests"),
            static_cast<std::uint64_t>(kQueries + probes.load()));
  // serve.responses is bumped after each frame is written, so the last
  // stats answer may not have counted itself yet.
  EXPECT_GE(counter_value("serve.responses"),
            static_cast<std::uint64_t>(kQueries));
  const obs::Snapshot snap = obs::snapshot();
  const auto latency =
      std::find_if(snap.spans.begin(), snap.spans.end(), [](const auto& s) {
        return s.name == "serve.latency.connectivity";
      });
  ASSERT_NE(latency, snap.spans.end());
  EXPECT_EQ(latency->count, static_cast<std::uint64_t>(kQueries));
}

TEST_F(ServeTest, StatsAreEmptyWhenObsIsDisabled) {
  obs::set_enabled(false);
  StartServer();
  Client client(socket_path());
  Json request = make_request(1, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  ASSERT_TRUE(client.call(request).get("ok")->as_bool());
  const Json stats = client.call(Client::request(2, "stats"));
  ASSERT_TRUE(stats.get("ok")->as_bool());
  const Json* result = stats.get("result");
  EXPECT_FALSE(result->get("obs_enabled")->as_bool());
  EXPECT_TRUE(result->get("counters")->entries().empty());
  EXPECT_TRUE(result->get("gauges")->entries().empty());
  EXPECT_TRUE(result->get("spans")->entries().empty());
}

TEST_F(ServeTest, ListenerSurvivesRunningOutOfDescriptors) {
  StartServer();
  // Cap the process at one descriptor past the lowest free one: the
  // client's socket takes that slot, so the listener's accept4 fails with
  // EMFILE while the connection waits in the backlog.
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  const int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = original;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::unique_ptr<Client> client;
  try {
    client = std::make_unique<Client>(socket_path());
  } catch (...) {
    ::setrlimit(RLIMIT_NOFILE, &original);
    throw;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);

  // Once descriptors are available again the queued connection is served.
  client->send(Client::request(1, "ping"));
  pollfd ready = {client->fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, /*timeout_ms=*/2000), 1)
      << "no answer: the listener stopped accepting";
  EXPECT_TRUE(client->recv().get("ok")->as_bool());
  // And so is a fresh one.
  Client again(socket_path());
  EXPECT_TRUE(again.call(Client::request(2, "ping")).get("ok")->as_bool());
}

TEST_F(ServeTest, FinishedConnectionsAreReapedOnAccept) {
  StartServer();
  const auto open_connections = [] {
    for (const obs::GaugeStat& stat : obs::snapshot().gauges) {
      if (stat.name == "serve.connections_open") return stat.last;
    }
    return -1.0;
  };
  // Sequential ping-and-close clients: each closes before the next opens.
  constexpr int kConnections = 300;
  for (int i = 0; i < kConnections; ++i) {
    Client client(socket_path());
    ASSERT_TRUE(client.call(Client::request(i, "ping")).get("ok")->as_bool());
  }
  // The last connection's thread finishes once it reads the close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (open_connections() != 0.0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "serve.connections_open stuck at " << open_connections();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter_value("serve.connections"),
            static_cast<std::uint64_t>(kConnections));

  // Every connection has finished, so the next accept reaps them all: the
  // server then holds exactly the one open connection, not 301 threads.
  Client fresh(socket_path());
  EXPECT_TRUE(fresh.call(Client::request(1, "ping")).get("ok")->as_bool());
  EXPECT_EQ(server_->tracked_connections(), 1u);
  EXPECT_EQ(open_connections(), 1.0);
}

// ------------------------------------------------- malformed-input fuzz --

TEST_F(ServeTest, GarbagePayloadsGetTypedErrorsAndNeverWedgeTheConnection) {
  StartServer();
  Client client(socket_path());
  util::Rng rng(20260808);
  for (int i = 0; i < 50; ++i) {
    const std::size_t length = rng.next_below(200);
    std::string garbage(length, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next_below(256));
    write_frame(client.fd(), garbage);
    const Json response = client.recv();  // one response per frame, always
    ASSERT_FALSE(response.get("ok")->as_bool());
    const std::string code = response.get("error")->get("code")->as_string();
    EXPECT_TRUE(code == "bad_frame" || code == "bad_request") << code;
  }
  // The connection still serves real queries afterwards.
  EXPECT_TRUE(client.call(Client::request(99, "ping")).get("ok")->as_bool());
  EXPECT_EQ(counter_value("serve.internal_errors"), 0u);
}

TEST_F(ServeTest, UnknownKindsAndBadShapesAreBadRequests) {
  StartServer();
  Client client(socket_path());
  const char* bad[] = {
      "{\"id\":1,\"kind\":\"frobnicate\"}",
      "{\"id\":2,\"kind\":42}",
      "{\"id\":3}",
      "[]",
      "{\"id\":4,\"kind\":\"decide\",\"model\":\"pseudosphere\"}",
      "{\"id\":5,\"kind\":\"homology\",\"max_dim\":99}",
  };
  for (const char* text : bad) {
    write_frame(client.fd(), text);
    const Json response = client.recv();
    ASSERT_FALSE(response.get("ok")->as_bool()) << text;
    EXPECT_EQ(response.get("error")->get("code")->as_string(), "bad_request")
        << text;
  }
}

TEST_F(ServeTest, OversizedFrameClosesTheConnectionWithoutCrashing) {
  StartServer();
  Client client(socket_path());
  const std::uint8_t header[4] = {0, 0, 0, 0x7F};  // ~2 GiB announcement
  ASSERT_EQ(::write(client.fd(), header, 4), 4);
  // The server reports bad_frame and closes; the client sees the error
  // frame and then EOF — never a hang.
  const Json response = client.recv();
  EXPECT_EQ(response.get("error")->get("code")->as_string(), "bad_frame");
  std::string payload;
  EXPECT_EQ(read_frame(client.fd(), &payload), FrameStatus::kClosed);
  // The server survives and accepts fresh connections.
  Client again(socket_path());
  EXPECT_TRUE(again.call(Client::request(1, "ping")).get("ok")->as_bool());
}

TEST_F(ServeTest, TornFrameFromDyingClientLeavesServerHealthy) {
  StartServer();
  {
    Client dying(socket_path());
    const std::uint8_t header[4] = {100, 0, 0, 0};
    ASSERT_EQ(::write(dying.fd(), header, 4), 4);
    ASSERT_EQ(::write(dying.fd(), "abc", 3), 3);
    // Destructor closes mid-frame: the server's reader sees a torn frame.
  }
  Client client(socket_path());
  EXPECT_TRUE(client.call(Client::request(1, "ping")).get("ok")->as_bool());
}

TEST_F(ServeTest, StorelessServerStillServes) {
  ServerOptions options;  // store_dir left empty: no cache
  options.socket_path = (dir_.path / "serve.sock").string();
  server_ = std::make_unique<Server>(std::move(options));
  server_->start();
  Client client(socket_path());
  Json request = make_request(1, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  const Json first = client.call(request);
  ASSERT_TRUE(first.get("ok")->as_bool());
  const Json second = client.call(request.set("id", Json::integer(2)));
  EXPECT_FALSE(second.get("cached")->as_bool());  // nothing to cache into
  EXPECT_EQ(first.get("result")->dump(), second.get("result")->dump());
}

}  // namespace
}  // namespace psph::serve
