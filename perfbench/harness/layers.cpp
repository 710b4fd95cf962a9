#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/construction.h"
#include "core/theorems.h"
#include "harness.h"
#include "solve/decide.h"
#include "topology/homology.h"

namespace perfbench {

namespace core = psph::core;
namespace topology = psph::topology;
namespace solve = psph::solve;

double epoch_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

int affinity_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  return CPU_COUNT(&set);
}

double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(in, text);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall, i.e. the 12th and 13th after ")".
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) +
                             "/stat");
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && fields >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

void Ledger::add(const std::string& name, double seconds) {
  Stat& stat = spans_[name];
  stat.count += 1;
  stat.total_s += seconds;
}

void Ledger::add_count(const std::string& name, double value) {
  counters_[name] += value;
}

Json Ledger::to_json() const {
  Json spans = Json::object();
  for (const auto& [name, stat] : spans_) {
    Json row = Json::object();
    row.set("count", Json::integer(static_cast<std::int64_t>(stat.count)));
    row.set("total_s", Json::number(stat.total_s));
    spans.set(name, std::move(row));
  }
  Json counters = Json::object();
  for (const auto& [name, value] : counters_) {
    counters.set(name, Json::number(value));
  }
  Json out = Json::object();
  out.set("spans", std::move(spans));
  out.set("counters", std::move(counters));
  return out;
}

namespace {

LayeredResult run_decide(const psph::serve::Query& q, Ledger& ledger) {
  solve::DecideRequest request;
  request.model = *solve::parse_model(q.model);
  request.processes = q.processes;
  request.f = q.f;
  request.k = q.k;
  request.mu = q.mu;
  request.rounds = q.rounds;
  request = solve::normalize(request);

  std::unique_ptr<solve::Instance> instance;
  {
    Span span(ledger, "solve.build");
    instance = solve::build_instance(request);
  }
  LayeredResult out;
  out.facets = instance->protocol.facet_count();
  const double cpu_before = self_cpu_seconds();
  solve::SolveOutcome outcome;
  {
    Span span(ledger, "solve.search");
    outcome = solve::solve(instance->problem);
  }
  ledger.add_count("solve.cpu_s", self_cpu_seconds() - cpu_before);
  ledger.add_count("solve.nodes", static_cast<double>(outcome.stats.nodes));
  out.solvable = outcome.solvable;
  out.exhausted = outcome.exhausted;
  return out;
}

}  // namespace

LayeredResult run_layered(const psph::serve::Query& q, Ledger& ledger) {
  if (q.kind == psph::serve::QueryKind::kDecide) return run_decide(q, ledger);
  if (q.kind == psph::serve::QueryKind::kConnectivity ||
      q.model == "pseudosphere") {
    throw std::logic_error("run_layered: no mirror for this query");
  }

  core::ViewRegistry views;
  topology::VertexArena arena;
  LayeredResult out;
  topology::SimplicialComplex complex;
  std::optional<core::OrbitComplexResult> orbit;
  {
    Span span(ledger, "core.build");
    const topology::Simplex input =
        core::rainbow_input(q.participants, views, arena);
    const core::AsyncParams async{q.processes, q.f, q.rounds};
    const core::SyncParams sync{q.processes, q.rounds * q.k, q.k, q.rounds};
    const core::SemiSyncParams semisync{q.processes, q.rounds * q.k, q.k,
                                        q.mu, q.rounds};
    if (q.construction == "orbit") {
      core::ConstructionCache cache;
      if (q.model == "async") {
        orbit = core::async_protocol_complex_orbit(input, async, views, arena,
                                                   cache);
      } else if (q.model == "sync") {
        orbit = core::sync_protocol_complex_orbit(input, sync, views, arena,
                                                  cache);
      } else {
        orbit = core::semisync_protocol_complex_orbit(input, semisync, views,
                                                      arena, cache);
      }
    } else if (q.model == "async") {
      complex = core::async_protocol_complex(input, async, views, arena);
    } else if (q.model == "sync") {
      complex = core::sync_protocol_complex(input, sync, views, arena);
    } else {
      complex = core::semisync_protocol_complex(input, semisync, views, arena);
    }
  }
  out.facets = orbit ? orbit->full_facet_count : complex.facet_count();
  ledger.add_count("core.facets", static_cast<double>(out.facets));

  if (q.kind == psph::serve::QueryKind::kComplexStats) {
    Span span(ledger, "core.fvector");
    out.f_vector = orbit ? core::orbit_full_f_vector(*orbit, views, arena)
                         : complex.f_vector();
    return out;
  }
  if (orbit) {
    Span span(ledger, "core.reconstitute");
    complex = core::reconstitute_full(*orbit, views, arena);
  }
  Span span(ledger, "topology.homology");
  topology::HomologyOptions options;
  options.max_dim = q.max_dim;
  options.exact = q.exact;
  out.betti = topology::reduced_homology(complex, options).reduced_betti;
  return out;
}

Json obs_json(const psph::obs::Snapshot& snapshot) {
  Json spans = Json::object();
  for (const psph::obs::SpanStat& stat : snapshot.spans) {
    Json row = Json::object();
    row.set("count", Json::integer(static_cast<std::int64_t>(stat.count)));
    row.set("total_s", Json::number(static_cast<double>(stat.total_ns) * 1e-9));
    row.set("max_s", Json::number(static_cast<double>(stat.max_ns) * 1e-9));
    spans.set(stat.name, std::move(row));
  }
  Json counters = Json::object();
  for (const psph::obs::CounterStat& stat : snapshot.counters) {
    counters.set(stat.name,
                 Json::integer(static_cast<std::int64_t>(stat.value)));
  }
  Json gauges = Json::object();
  for (const psph::obs::GaugeStat& stat : snapshot.gauges) {
    Json row = Json::object();
    row.set("last", Json::number(stat.last));
    row.set("mean", Json::number(stat.samples == 0
                                     ? 0.0
                                     : stat.sum /
                                           static_cast<double>(stat.samples)));
    gauges.set(stat.name, std::move(row));
  }
  Json out = Json::object();
  out.set("spans", std::move(spans));
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  return out;
}

}  // namespace perfbench
