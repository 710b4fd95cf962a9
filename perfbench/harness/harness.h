#pragma once

// Shared pieces of the psph_perfbench harness: clocks, process CPU and
// memory probes, the span ledger the traced runs fill from the harness's
// own calls into each module, and the layered mirror of compute_sealed
// that traced batch_large batteries replay their queries through.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using psph::serve::Json;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seconds since the Unix epoch; lets run.py relate a child's timestamps to
/// the moment it launched the child.
double epoch_seconds();

/// The CPUs this process may run on (sched_getaffinity): the thread count
/// every workload runs with.
int affinity_threads();

/// user+sys CPU seconds of this process.
double self_cpu_seconds();
/// user+sys CPU seconds of process `pid`, from /proc/<pid>/stat.
double proc_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of `pid` (0 = this process), in MiB.
double peak_rss_mb(pid_t pid = 0);

/// Aggregated harness spans and counts, keyed by metric-style names such
/// as "core.build"; run.py turns them into the per-layer metrics.
/// Single-threaded: the layered mirror runs one query at a time.
class Ledger {
 public:
  struct Stat {
    std::uint64_t count = 0;
    double total_s = 0.0;
  };
  void add(const std::string& name, double seconds);
  void add_count(const std::string& name, double value);
  Json to_json() const;

 private:
  std::map<std::string, Stat> spans_;
  std::map<std::string, double> counters_;
};

/// Times one call into a module.
class Span {
 public:
  Span(Ledger& ledger, const char* name)
      : ledger_(ledger), name_(name), start_(Clock::now()) {}
  ~Span() { ledger_.add(name_, seconds_since(start_)); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger& ledger_;
  const char* name_;
  Clock::time_point start_;
};

/// What the layered mirror learned about one query.
struct LayeredResult {
  std::uint64_t facets = 0;
  std::vector<std::size_t> f_vector;
  std::vector<long long> betti;
  bool solvable = false;
  bool exhausted = false;
};

/// Mirrors serve::compute_sealed for a homology, complex_stats or decide
/// query of a timing model: the same public calls, one module at a time,
/// each timed into `ledger` (spans core.build, core.fvector,
/// core.reconstitute, topology.homology, solve.build, solve.search; counts
/// core.facets, solve.nodes, solve.cpu_s). A change to compute_sealed's
/// call sequence must be made here too; traced batteries check that the
/// mirror's answers still equal the program's.
LayeredResult run_layered(const psph::serve::Query& q, Ledger& ledger);

/// The aggregates of an obs snapshot (spans, counters, gauges) as JSON.
Json obs_json(const psph::obs::Snapshot& snapshot);

int run_serve(int argc, char** argv);
int run_batch(int argc, char** argv);

}  // namespace perfbench
