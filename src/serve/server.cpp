#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "obs/obs.h"
#include "serve/queries.h"
#include "serve/wire.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace psph::serve {

namespace {

using Clock = std::chrono::steady_clock;

// The daemon's only counters: the `stats` request renders obs::snapshot().
obs::Counter g_connections("serve.connections");
obs::Gauge g_connections_open("serve.connections_open");
obs::Counter g_requests("serve.requests");
obs::Counter g_responses("serve.responses");
obs::Counter g_computed("serve.computed");      // unique jobs computed
obs::Counter g_cache_hits("serve.cache_hits");  // unique jobs from the store
obs::Counter g_coalesced("serve.coalesced");  // waiters served by another job
obs::Counter g_overloaded("serve.overloaded");
obs::Counter g_deadline("serve.deadline_exceeded");
obs::Counter g_bad_requests("serve.bad_requests");
obs::Counter g_bad_frames("serve.bad_frames");
obs::Counter g_internal_errors("serve.internal_errors");
obs::Gauge g_queue_depth("serve.queue_depth");
obs::Gauge g_in_flight("serve.in_flight");

/// Queue-to-response latency span of one query kind.
const char* latency_span(QueryKind kind) {
  switch (kind) {
    case QueryKind::kConnectivity: return "serve.latency.connectivity";
    case QueryKind::kHomology: return "serve.latency.homology";
    case QueryKind::kComplexStats: return "serve.latency.complex_stats";
    case QueryKind::kDecide: return "serve.latency.decide";
  }
  return "serve.latency.?";
}

Json render_stats() {
  const obs::Snapshot snap = obs::snapshot();
  Json counters = Json::object();
  for (const obs::CounterStat& c : snap.counters) {
    counters.set(c.name, Json::integer(static_cast<std::int64_t>(c.value)));
  }
  Json gauges = Json::object();
  for (const obs::GaugeStat& g : snap.gauges) {
    Json entry = Json::object();
    entry.set("last", Json::number(g.last))
        .set("min", Json::number(g.min))
        .set("max", Json::number(g.max))
        .set("mean", Json::number(g.sum / static_cast<double>(g.samples)));
    gauges.set(g.name, std::move(entry));
  }
  Json spans = Json::object();
  for (const obs::SpanStat& span : snap.spans) {
    Json entry = Json::object();
    entry.set("count", Json::integer(static_cast<std::int64_t>(span.count)))
        .set("mean_us", Json::number(static_cast<double>(span.total_ns) /
                                     static_cast<double>(span.count) / 1e3))
        .set("max_us", Json::number(static_cast<double>(span.max_ns) / 1e3));
    spans.set(span.name, std::move(entry));
  }
  Json body = Json::object();
  body.set("obs_enabled", Json::boolean(obs::enabled()))
      .set("counters", std::move(counters))
      .set("gauges", std::move(gauges))
      .set("spans", std::move(spans));
  return body;
}

Clock::time_point effective_deadline(const Query& q,
                                     std::int64_t default_deadline_ms,
                                     Clock::time_point now) {
  const std::int64_t ms =
      q.deadline_ms != 0 ? q.deadline_ms : default_deadline_ms;
  if (ms == 0) return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

}  // namespace

void Server::Connection::close_fd() {
  std::lock_guard<std::mutex> lock(write_mutex);
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::runtime_error("serve: start() called twice");
  started_ = true;
  if (!options_.store_dir.empty()) {
    store_ = std::make_unique<store::ResultStore>(options_.store_dir,
                                                  options_.fs);
  }
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }
  listen_fd_ = listen_unix(options_.socket_path, options_.listen_backlog);
  listener_ = std::thread([this] { listener_loop(); });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    stop_signalled_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    paused_ = false;  // a paused dispatcher must still observe the stop
  }
  queue_cv_.notify_all();
  // Wake the listener's poll(), then join it so no new connections appear.
  const char byte = 'x';
  (void)!::write(wake_pipe_[1], &byte, 1);
  if (listener_.joinable()) listener_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  // Let the in-flight batch finish delivering responses before the
  // connections go away: join the dispatcher first.
  if (dispatcher_.joinable()) dispatcher_.join();
  // The listener is joined, so conns_ no longer grows; the connection
  // threads only touch it to mark themselves finished.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const ConnEntry& entry : conns_) {
      std::lock_guard<std::mutex> write_lock(entry.conn->write_mutex);
      if (entry.conn->fd >= 0) ::shutdown(entry.conn->fd, SHUT_RDWR);
    }
  }
  for (ConnEntry& entry : conns_) {
    if (entry.thread.joinable()) entry.thread.join();
  }
  for (const ConnEntry& entry : conns_) entry.conn->close_fd();
  conns_.clear();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  shutdown_cv_.notify_all();
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  return shutdown_requested_;
}

bool Server::wait_for_shutdown(std::int64_t poll_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  const auto ready = [this] { return shutdown_requested_ || stop_signalled_; };
  if (poll_ms <= 0) {
    shutdown_cv_.wait(lock, ready);
  } else {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(poll_ms), ready);
  }
  return shutdown_requested_;
}

void Server::pause_dispatch() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  paused_ = true;
}

void Server::resume_dispatch() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void Server::listener_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors or memory for now: back off and retry rather
        // than stop accepting for good. The wait still ends on stop().
        pollfd wake = {wake_pipe_[0], POLLIN, 0};
        if (::poll(&wake, 1, /*timeout_ms=*/10) > 0) return;
        continue;
      }
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    g_connections.add();
    std::lock_guard<std::mutex> lock(conns_mutex_);
    // Reap connections whose thread has finished: join it (it is past its
    // last use of conns_mutex_) and drop the entry, so a long-lived daemon
    // holds threads and stacks only for its open connections.
    std::erase_if(conns_, [](ConnEntry& entry) {
      if (!entry.conn->finished) return false;
      entry.thread.join();
      return true;
    });
    ++open_connections_;
    g_connections_open.set(static_cast<double>(open_connections_));
    conns_.push_back(
        {conn, std::thread([this, conn] { connection_loop(conn); })});
  }
}

std::size_t Server::tracked_connections() {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conns_.size();
}

void Server::connection_loop(ConnPtr conn) {
  while (true) {
    std::string payload;
    FrameStatus status;
    try {
      status = read_frame(conn->fd, &payload);
    } catch (const WireError& error) {
      // The stream is damaged (torn/oversized frame): report once, close.
      g_bad_frames.add();
      send_json(conn, make_error_response(0, {"bad_frame", error.what()}));
      break;
    }
    if (status == FrameStatus::kClosed) break;

    Json request;
    try {
      request = Json::parse(payload);
    } catch (const JsonError& error) {
      // Framing is intact, only this payload is garbage: the connection
      // can keep serving.
      g_bad_frames.add();
      send_json(conn, make_error_response(0, {"bad_frame", error.what()}));
      continue;
    }

    g_requests.add();
    const ParsedRequest parsed = parse_request(request);
    if (parsed.error.has_value()) {
      g_bad_requests.add();
      send_json(conn, make_error_response(parsed.id, *parsed.error));
      continue;
    }
    if (parsed.is_admin) {
      handle_admin(conn, parsed);
      if (parsed.kind == "shutdown") break;
      continue;
    }

    Pending pending;
    pending.conn = conn;
    pending.id = parsed.id;
    pending.query = *parsed.query;
    pending.key_hex = cache_key(pending.query).key().hex();
    pending.enqueued = Clock::now();
    pending.deadline = effective_deadline(
        pending.query, options_.default_deadline_ms, pending.enqueued);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() < options_.queue_limit) {
        queue_.push_back(std::move(pending));
        g_queue_depth.set(static_cast<double>(queue_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      g_overloaded.add();
      send_json(conn,
                make_error_response(
                    parsed.id,
                    {"overloaded", "queue full (" +
                                       std::to_string(options_.queue_limit) +
                                       " requests); retry later"}));
    }
  }
  conn->close_fd();
  std::lock_guard<std::mutex> lock(conns_mutex_);
  --open_connections_;
  g_connections_open.set(static_cast<double>(open_connections_));
  conn->finished = true;
}

void Server::handle_admin(const ConnPtr& conn, const ParsedRequest& parsed) {
  if (parsed.kind == "ping") {
    send_json(conn, make_ok_response(parsed.id, "ping", Json::object(),
                                     /*cached=*/false, /*coalesced=*/false));
    return;
  }
  if (parsed.kind == "stats") {
    send_json(conn, make_ok_response(parsed.id, "stats", render_stats(),
                                     /*cached=*/false, /*coalesced=*/false));
    return;
  }
  // shutdown: acknowledge, then let the owner (daemon main / test) observe
  // the flag and call stop() — stopping from this thread would self-join.
  send_json(conn, make_ok_response(parsed.id, "shutdown", Json::object(),
                                   /*cached=*/false, /*coalesced=*/false));
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::dispatcher_loop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) return;
      const std::size_t take = std::min(options_.batch_max, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      g_queue_depth.set(static_cast<double>(queue_.size()));
    }
    process_batch(std::move(batch));
  }
}

void Server::process_batch(std::vector<Pending> batch) {
  obs::SpanTimer batch_span("serve.batch",
                            static_cast<std::int64_t>(batch.size()));

  struct Group {
    Query query;
    std::vector<Pending> waiters;
    Clock::time_point latest_deadline = Clock::time_point::min();
    bool ok = false;
    QueryResult result;
    ErrorInfo error;
  };

  // Reject requests whose deadline already passed while queued, and group
  // the rest by cache key: one computation per distinct query.
  std::vector<Group> groups;
  const Clock::time_point now = Clock::now();
  for (Pending& pending : batch) {
    if (pending.deadline <= now) {
      g_deadline.add();
      send_json(pending.conn,
                make_error_response(
                    pending.id,
                    {"deadline_exceeded", "deadline expired while queued"}));
      continue;
    }
    Group* group = nullptr;
    for (Group& candidate : groups) {
      if (candidate.waiters.front().key_hex == pending.key_hex) {
        group = &candidate;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->query = pending.query;
    }
    group->latest_deadline = std::max(group->latest_deadline, pending.deadline);
    group->waiters.push_back(std::move(pending));
  }
  if (groups.empty()) return;

  g_in_flight.set(static_cast<double>(groups.size()));
  // Nested parallel_for calls inside a query run inline on this worker, so
  // the DeadlineScope set here governs the whole computation.
  util::parallel_for(groups.size(), [&](std::size_t i) {
    Group& group = groups[i];
    obs::SpanTimer query_span("serve.query");
    try {
      if (group.latest_deadline != Clock::time_point::max()) {
        util::DeadlineScope scope(group.latest_deadline);
        util::poll_deadline();
        group.result = execute_query(group.query, store_.get());
      } else {
        group.result = execute_query(group.query, store_.get());
      }
      group.ok = true;
    } catch (const util::DeadlineExceeded&) {
      group.error = {"deadline_exceeded", "computation exceeded deadline"};
    } catch (const std::exception& error) {
      group.error = {"internal", error.what()};
    }
  });
  g_in_flight.set(0.0);

  const Clock::time_point done = Clock::now();
  for (Group& group : groups) {
    if (group.ok) {
      (group.result.cache_hit ? g_cache_hits : g_computed).add();
      if (group.waiters.size() > 1) g_coalesced.add(group.waiters.size() - 1);
    } else if (group.error.code == "deadline_exceeded") {
      g_deadline.add(group.waiters.size());
    } else {
      g_internal_errors.add(group.waiters.size());
    }
    for (std::size_t w = 0; w < group.waiters.size(); ++w) {
      const Pending& waiter = group.waiters[w];
      if (!group.ok) {
        send_json(waiter.conn, make_error_response(waiter.id, group.error));
        continue;
      }
      if (waiter.deadline <= done) {
        // The shared computation outlived this waiter's budget; the result
        // is in the store for a retry, but this response honours the
        // deadline contract strictly.
        g_deadline.add();
        send_json(waiter.conn,
                  make_error_response(waiter.id,
                                      {"deadline_exceeded",
                                       "result ready after deadline"}));
        continue;
      }
      // Latency is recorded before the response goes out so a client that
      // immediately asks for `stats` after its answer sees itself counted.
      obs::record_span_since(latency_span(waiter.query.kind),
                             waiter.enqueued);
      send_json(waiter.conn,
                make_ok_response(waiter.id, kind_name(waiter.query.kind),
                                 group.result.body, group.result.cache_hit,
                                 /*coalesced=*/w > 0));
    }
  }
}

void Server::send_json(const ConnPtr& conn, const Json& response) {
  const std::string payload = response.dump();
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->fd < 0) return;
  try {
    write_frame(conn->fd, payload);
    g_responses.add();
  } catch (const WireError&) {
    // Peer hung up mid-response; its reader thread will observe the close.
  }
}

}  // namespace psph::serve
