// serve_hot: a closed loop of C connections, each keeping a window of W
// pipelined requests of the hot mix in flight, against psph_serve whose
// store holds every answer.
//
// Untraced runs launch the real daemon (PSPH_OBS=0, --threads given
// explicitly) and read its CPU and peak RSS from /proc. Traced runs host
// the same serve::Server in this process, because the daemon's psph_obs
// registry cannot be read from outside it; they alternate obs-off and
// obs-on phases, so the difference is the tracing overhead.
//
// Every ok response is byte-compared with the in-process batch path
// (compute_sealed -> render_result). Error responses, mismatches and
// wedged connections all count as failures.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cold_mix.h"
#include "harness.h"
#include "math/simd.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/random.h"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using psph::serve::Client;
using psph::serve::Query;

namespace {

constexpr int kConnections = 4;
constexpr int kWindow = 8;
/// Daemon launches timed for setup_s.
constexpr int kSetups = 32;
/// Obs-off/obs-on phase pairs of a traced run.
constexpr int kTracePairs = 4;
/// Requests in one lap, in completion order: wall_s is the median time to
/// answer a lap, p99_ms the median of the laps' p99 (200 samples beyond
/// each), cpu_s the daemon's CPU per lap.
constexpr std::size_t kLapRequests = 20000;
/// The hot mix is drawn per connection from a seeded plan of this length,
/// then cycled.
constexpr std::size_t kPlanLength = 1 << 20;

/// One measured closed-loop phase.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t cached = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t wedged = 0;
  std::map<std::string, std::uint64_t> errors;  // by error code
  std::vector<std::uint64_t> rtt_ns;
  /// Completion time of each sample, nanoseconds after the phase began.
  std::vector<std::uint64_t> done_ns;
  double elapsed_s = 0.0;

  /// Appends `part`, a phase that ran after this one: its completion times
  /// are shifted by this phase's elapsed time.
  void absorb(const Phase& part) {
    const auto offset_ns = static_cast<std::uint64_t>(elapsed_s * 1e9);
    attempted += part.attempted;
    ok += part.ok;
    cached += part.cached;
    mismatches += part.mismatches;
    wedged += part.wedged;
    for (const auto& [code, count] : part.errors) errors[code] += count;
    rtt_ns.insert(rtt_ns.end(), part.rtt_ns.begin(), part.rtt_ns.end());
    for (const std::uint64_t done : part.done_ns) done_ns.push_back(done + offset_ns);
    elapsed_s += part.elapsed_s;
  }

  std::uint64_t failed() const {
    std::uint64_t errors_total = 0;
    for (const auto& [code, count] : errors) errors_total += count;
    return errors_total + mismatches + wedged;
  }
};

/// The hot shapes as requests, the expected body of each, and one seeded
/// weighted plan of shape indices per connection.
struct Workload {
  std::vector<Json> requests;
  std::vector<std::string> expected;
  std::vector<std::vector<int>> plans;
};

double percentile_ms(std::vector<std::uint64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const std::size_t index = std::min(
      ns.size() - 1, static_cast<std::size_t>(p * static_cast<double>(ns.size())));
  return static_cast<double>(ns[index]) / 1e6;
}

/// The closed loop runs on one client thread that polls all connections,
/// so the load generator takes one CPU and leaves the rest to the daemon.
Phase closed_loop(const std::string& socket, const Workload& workload,
                  double seconds) {
  struct InFlight {
    std::size_t item;
    Clock::time_point sent;
  };
  struct Connection {
    std::unique_ptr<Client> client;
    std::size_t cursor = 0;
    std::int64_t next_id = 1;
    std::map<std::int64_t, InFlight> pending;
  };
  Phase out;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_sending =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Connection> conns(kConnections);
  std::vector<pollfd> fds;
  const auto send_next = [&](int c) {
    if (Clock::now() >= stop_sending) return;
    Connection& conn = conns[static_cast<std::size_t>(c)];
    const std::vector<int>& plan = workload.plans[static_cast<std::size_t>(c)];
    const auto item =
        static_cast<std::size_t>(plan[conn.cursor++ % plan.size()]);
    Json request = workload.requests[item];
    request.set("id", Json::integer(conn.next_id));
    conn.pending[conn.next_id++] = {item, Clock::now()};
    ++out.attempted;
    conn.client->send(request);
  };
  const auto in_flight = [&] {
    std::uint64_t total = 0;
    for (const Connection& conn : conns) total += conn.pending.size();
    return total;
  };
  try {
    for (int c = 0; c < kConnections; ++c) {
      conns[static_cast<std::size_t>(c)].client = std::make_unique<Client>(socket);
      fds.push_back({conns[static_cast<std::size_t>(c)].client->fd(), POLLIN, 0});
      for (int w = 0; w < kWindow; ++w) send_next(c);
    }
    while (in_flight() != 0) {
      // A server that stops answering must not hang the benchmark.
      const int ready = ::poll(fds.data(), fds.size(), 30000);
      if (ready == 0) throw std::runtime_error("no response in 30 s");
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("poll failed");
      }
      for (int c = 0; c < kConnections; ++c) {
        if (fds[static_cast<std::size_t>(c)].revents == 0) continue;
        Connection& conn = conns[static_cast<std::size_t>(c)];
        const Json response = conn.client->recv();
        const Clock::time_point now = Clock::now();
        const auto it = conn.pending.find(response.get("id")->as_int());
        if (it == conn.pending.end()) throw std::runtime_error("stray response id");
        const InFlight flight = it->second;
        conn.pending.erase(it);
        out.rtt_ns.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - flight.sent)
                .count()));
        out.done_ns.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                .count()));
        if (!response.get("ok")->as_bool()) {
          ++out.errors[response.get("error")->get("code")->as_string()];
        } else {
          ++out.ok;
          if (response.get("cached")->as_bool()) ++out.cached;
          if (response.get("result")->dump() != workload.expected[flight.item]) {
            ++out.mismatches;
          }
        }
        send_next(c);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "closed loop wedged: %s\n", error.what());
    out.wedged += in_flight() + 1;
  }
  out.elapsed_s = seconds_since(start);
  return out;
}

/// Whole-phase figures (qps of verified responses, round-trip percentiles
/// over every sample) and per-lap ones: each lap's time and p99.
Json phase_json(const Phase& phase) {
  Json errors = Json::object();
  for (const auto& [code, count] : phase.errors) {
    errors.set(code, Json::integer(static_cast<std::int64_t>(count)));
  }
  const std::uint64_t verified = phase.ok - phase.mismatches;
  Json out = Json::object();
  out.set("attempted", Json::integer(static_cast<std::int64_t>(phase.attempted)));
  out.set("ok", Json::integer(static_cast<std::int64_t>(phase.ok)));
  out.set("failed", Json::integer(static_cast<std::int64_t>(phase.failed())));
  out.set("mismatches", Json::integer(static_cast<std::int64_t>(phase.mismatches)));
  out.set("wedged", Json::integer(static_cast<std::int64_t>(phase.wedged)));
  out.set("errors", std::move(errors));
  out.set("cached", Json::integer(static_cast<std::int64_t>(phase.cached)));
  out.set("elapsed_s", Json::number(phase.elapsed_s));
  out.set("qps", Json::number(static_cast<double>(verified) / phase.elapsed_s));
  out.set("samples", Json::integer(static_cast<std::int64_t>(phase.rtt_ns.size())));
  out.set("p50_ms", Json::number(percentile_ms(phase.rtt_ns, 0.50)));
  out.set("p99_ms", Json::number(percentile_ms(phase.rtt_ns, 0.99)));
  double sum_ns = 0.0;
  for (const std::uint64_t ns : phase.rtt_ns) sum_ns += static_cast<double>(ns);
  out.set("mean_ms", Json::number(phase.rtt_ns.empty()
                                      ? 0.0
                                      : sum_ns / 1e6 /
                                            static_cast<double>(phase.rtt_ns.size())));
  // Samples in completion order, cut into laps of kLapRequests.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_done;
  for (std::size_t i = 0; i < phase.done_ns.size(); ++i) {
    by_done.emplace_back(phase.done_ns[i], phase.rtt_ns[i]);
  }
  std::sort(by_done.begin(), by_done.end());
  Json laps = Json::array();
  Json lap_p99 = Json::array();
  std::uint64_t lap_start_ns = 0;
  for (std::size_t end = kLapRequests; end <= by_done.size(); end += kLapRequests) {
    std::vector<std::uint64_t> rtt;
    for (std::size_t i = end - kLapRequests; i < end; ++i) {
      rtt.push_back(by_done[i].second);
    }
    laps.push(Json::number(
        static_cast<double>(by_done[end - 1].first - lap_start_ns) * 1e-9));
    lap_p99.push(Json::number(percentile_ms(std::move(rtt), 0.99)));
    lap_start_ns = by_done[end - 1].first;
  }
  out.set("lap_p99_ms", std::move(lap_p99));
  out.set("lap_s", std::move(laps));
  return out;
}

/// The psph_serve daemon as a child process; killed and reaped on scope
/// exit if it was not shut down cleanly.
class Daemon {
 public:
  Daemon(const std::string& binary, const fs::path& dir, int threads)
      : socket_((dir / "serve.sock").string()) {
    const std::string store = (dir / "store").string();
    const std::string log = (dir / "daemon.log").string();
    const std::vector<std::string> args = {
        binary, "--socket=" + socket_, "--store-dir=" + store,
        "--threads=" + std::to_string(threads)};
    std::vector<std::string> env = {"PSPH_OBS=0"};
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string entry = *e;
      if (entry.rfind("PSPH_OBS=", 0) != 0) env.push_back(entry);
    }
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (const std::string& e : env) envp.push_back(const_cast<char*>(e.c_str()));
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon answers a ping.
  void wait_ready() {
    const Clock::time_point start = Clock::now();
    while (true) {
      try {
        Client client(socket_);
        if (client.call(Client::request(0, "ping")).get("ok")->as_bool()) return;
      } catch (const std::exception&) {
        // not listening yet
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("psph_serve exited during start-up");
      }
      if (seconds_since(start) > 30.0) {
        throw std::runtime_error("psph_serve did not answer a ping in 30 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  Json stats() {
    Client client(socket_);
    return *client.call(Client::request(0, "stats")).get("result");
  }

  /// Asks for a clean shutdown and reaps the process.
  void shutdown() {
    {
      Client client(socket_);
      client.call(Client::request(0, "shutdown"));
    }
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("psph_serve did not exit after shutdown");
  }

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

/// Sends every hot shape once, in order, so the store holds all of them.
std::uint64_t warm_fill(const std::string& socket, const Workload& workload) {
  Client client(socket);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    Json request = workload.requests[i];
    request.set("id", Json::integer(static_cast<std::int64_t>(i) + 1));
    const Json response = client.call(request);
    if (!response.get("ok")->as_bool() ||
        response.get("result")->dump() != workload.expected[i]) {
      ++bad;
    }
  }
  return bad;
}

/// Mean codec cost per request: Json::parse of the request text,
/// parse_request, render_result of the sealed bytes and the response dump.
double codec_us(const std::vector<std::string>& texts,
                const std::vector<std::vector<std::uint8_t>>& sealed) {
  const Clock::time_point start = Clock::now();
  std::size_t calls = 0;
  while (calls < texts.size() || seconds_since(start) < 0.3) {
    const std::size_t i = calls % texts.size();
    const psph::serve::ParsedRequest parsed =
        psph::serve::parse_request(Json::parse(texts[i]));
    const std::string response =
        psph::serve::make_ok_response(
            parsed.id, psph::serve::kind_name(parsed.query->kind),
            psph::serve::render_result(*parsed.query, sealed[i]), true, false)
            .dump();
    if (response.empty()) throw std::logic_error("empty response");
    ++calls;
  }
  return seconds_since(start) * 1e6 / static_cast<double>(calls);
}

Json store_json(const psph::store::StoreStats& s) {
  Json out = Json::object();
  out.set("hits", Json::integer(static_cast<std::int64_t>(s.hits)));
  out.set("misses", Json::integer(static_cast<std::int64_t>(s.misses)));
  out.set("writes", Json::integer(static_cast<std::int64_t>(s.writes)));
  out.set("bytes_read", Json::integer(static_cast<std::int64_t>(s.bytes_read)));
  out.set("bytes_written",
          Json::integer(static_cast<std::int64_t>(s.bytes_written)));
  return out;
}

psph::store::StoreStats plus(const psph::store::StoreStats& a,
                             const psph::store::StoreStats& b) {
  return {a.hits + b.hits, a.misses + b.misses, a.writes + b.writes,
          a.corrupt_entries + b.corrupt_entries, a.bytes_read + b.bytes_read,
          a.bytes_written + b.bytes_written};
}

psph::store::StoreStats minus(const psph::store::StoreStats& a,
                              const psph::store::StoreStats& b) {
  return {a.hits - b.hits, a.misses - b.misses, a.writes - b.writes,
          a.corrupt_entries - b.corrupt_entries, a.bytes_read - b.bytes_read,
          a.bytes_written - b.bytes_written};
}

}  // namespace

int run_serve(int argc, char** argv) {
  std::int64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string daemon_binary;
  std::string work_dir;
  psph::util::Cli cli("psph_perfbench serve", "one serve_hot run");
  cli.flag("seed", &seed, "hot-mix plan seed");
  cli.flag("seconds", &seconds, "measured closed-loop time");
  cli.flag("trace", &trace, "host the server in-process and record spans");
  cli.flag("daemon", &daemon_binary, "psph_serve binary (untraced runs)");
  cli.flag("work-dir", &work_dir, "fresh directory for sockets and stores");
  cli.parse(argc, argv);
  if (work_dir.empty()) throw std::runtime_error("--work-dir is required");
  if (!trace && daemon_binary.empty()) {
    throw std::runtime_error("--daemon is required for untraced runs");
  }
  const int threads = affinity_threads();
  psph::util::set_thread_count(threads);
  psph::obs::set_enabled(false);
  psph::obs::set_event_capacity(0);

  Workload workload;
  std::vector<std::string> texts;
  std::vector<std::vector<std::uint8_t>> sealed;
  for (const HotShape& shape : hot_shapes()) {
    texts.push_back(shape.json);
    workload.requests.push_back(Json::parse(shape.json));
    const Query q = *psph::serve::parse_request(workload.requests.back()).query;
    sealed.push_back(psph::serve::compute_sealed(q));
    workload.expected.push_back(
        psph::serve::render_result(q, sealed.back()).dump());
  }
  // Every phase draws fresh per-connection plans from the seed.
  std::uint64_t phase_index = 0;
  const auto new_plans = [&] {
    ++phase_index;
    workload.plans.clear();
    for (int c = 0; c < kConnections; ++c) {
      workload.plans.push_back(hot_stream(
          psph::util::Rng(static_cast<std::uint64_t>(seed))
              .split("phase-" + std::to_string(phase_index) + "-conn-" +
                     std::to_string(c))
              .seed(),
          kPlanLength));
    }
  };
  // 2 s of the hot mix before timing lets the daemon's allocations and
  // threads settle.
  const auto warmup = [&](const std::string& socket) {
    new_plans();
    if (closed_loop(socket, workload, 2.0).failed() != 0) {
      throw std::runtime_error("warm-up phase failed");
    }
    new_plans();
  };

  Json out = Json::object();
  out.set("seed", Json::integer(seed));
  out.set("threads", Json::integer(threads));
  out.set("connections", Json::integer(kConnections));
  out.set("window", Json::integer(kWindow));
  out.set("lap_requests", Json::integer(static_cast<std::int64_t>(kLapRequests)));
  out.set("simd", Json::string(psph::math::simd_level_name(psph::math::simd_level())));

  if (!trace) {
    // setup_s samples: daemon launch to first ping, plus the store fill.
    // Half are taken before the measured phase (the last daemon serves it)
    // and half after, so one slow spell on the host does not set the
    // median.
    Json setup_s = Json::array();
    Json ping_s = Json::array();  // the launch-to-ping part of setup_s
    std::uint64_t setup_failures = 0;
    int launches = 0;
    const auto launch_daemon = [&] {
      const fs::path dir =
          fs::path(work_dir) / ("daemon-" + std::to_string(launches++));
      fs::remove_all(dir);
      fs::create_directories(dir);
      const Clock::time_point launch = Clock::now();
      auto daemon = std::make_unique<Daemon>(daemon_binary, dir, threads);
      daemon->wait_ready();
      ping_s.push(Json::number(seconds_since(launch)));
      setup_failures += warm_fill(daemon->socket(), workload);
      setup_s.push(Json::number(seconds_since(launch)));
      return daemon;
    };
    std::unique_ptr<Daemon> daemon;
    for (int s = 0; s < kSetups / 2; ++s) {
      if (daemon) daemon->shutdown();
      daemon = launch_daemon();
    }
    warmup(daemon->socket());
    const double cpu_before = proc_cpu_seconds(daemon->pid());
    Phase phase = closed_loop(daemon->socket(), workload, seconds);
    const double cpu_s = proc_cpu_seconds(daemon->pid()) - cpu_before;
    const double rss_mb = peak_rss_mb(daemon->pid());
    Json server = daemon->stats();
    daemon->shutdown();
    for (int s = kSetups / 2; s < kSetups; ++s) launch_daemon()->shutdown();
    phase.mismatches += setup_failures;

    Json measured = phase_json(phase);
    measured.set("cpu_s", Json::number(cpu_s));
    measured.set("peak_rss_mb", Json::number(rss_mb));
    out.set("measured", std::move(measured));
    out.set("setup_s", std::move(setup_s));
    out.set("setup_ping_s", std::move(ping_s));
    out.set("server", std::move(server));
    std::printf("%s\n", out.dump().c_str());
    return phase.failed() == 0 ? 0 : 1;
  }

  // Traced: the same server in-process, with psph_obs off and on.
  const fs::path dir = fs::path(work_dir) / "inprocess";
  fs::remove_all(dir);
  fs::create_directories(dir);
  psph::serve::ServerOptions options;
  options.socket_path = (dir / "serve.sock").string();
  options.store_dir = (dir / "store").string();
  psph::serve::Server server(options);
  server.start();
  const std::uint64_t setup_failures = warm_fill(options.socket_path, workload);
  warmup(options.socket_path);

  // Obs-off and obs-on phases alternate, so a slow spell on the host
  // lands on both kinds alike.
  Phase untraced;
  Phase traced;
  psph::store::StoreStats store_delta{};
  double cpu_s = 0.0;
  psph::obs::reset();
  for (int pair = 0; pair < kTracePairs; ++pair) {
    untraced.absorb(
        closed_loop(options.socket_path, workload, seconds / (2 * kTracePairs)));
    new_plans();
    const psph::store::StoreStats store_before = server.result_store()->stats();
    const double cpu_before = self_cpu_seconds();
    psph::obs::set_enabled(true);
    traced.absorb(
        closed_loop(options.socket_path, workload, seconds / (2 * kTracePairs)));
    psph::obs::set_enabled(false);
    cpu_s += self_cpu_seconds() - cpu_before;
    store_delta = plus(store_delta,
                       minus(server.result_store()->stats(), store_before));
    new_plans();
  }
  server.stop();
  const Json obs = obs_json(psph::obs::snapshot());
  traced.mismatches += setup_failures;

  Ledger ledger;
  ledger.add_count("serve.codec_us", codec_us(texts, sealed));
  Json traced_json = phase_json(traced);
  traced_json.set("cpu_s", Json::number(cpu_s));
  out.set("untraced", phase_json(untraced));
  out.set("traced", std::move(traced_json));
  out.set("store", store_json(store_delta));
  out.set("obs", obs);
  out.set("ledger", ledger.to_json());
  std::printf("%s\n", out.dump().c_str());
  return untraced.failed() + traced.failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
