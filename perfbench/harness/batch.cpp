// batch_large: one process runs a fixed battery of large single instances.
// Each instance is one SweepEngine::run over a fresh store whose compute
// callback is the program's own batch path, serve::compute_sealed, so the
// job owns the whole pool (parallel_for with n <= 1 runs inline and leaves
// the nested calls free to fan out). Every instance's rendered result
// (render_result of the sealed bytes) is checked against the paper's
// verdict or a pinned value; instances never repeat within a run.
//
// The battery and its order are fixed. An order drawn from the run's seed
// moved single instances by up to 0.1 s (the first instance, and whatever
// follows the largest one, pays for the allocator's history), which is
// not what the workload measures.
//
// Traced batteries run the same jobs with psph_obs on, then replay each
// query once more through the layered mirror (run_layered, obs off) for the
// harness's per-module spans, and check that the mirror's answer agrees
// with the program's.

#include <malloc.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "core/async_complex.h"
#include "math/simd.h"
#include "obs/obs.h"
#include "serve/queries.h"
#include "sweep/sweep.h"
#include "util/cli.h"
#include "util/parallel.h"

namespace perfbench {

namespace fs = std::filesystem;
using psph::serve::Query;
using psph::serve::QueryKind;

namespace {

struct Instance {
  const char* name;
  Query query;
  /// Empty when the rendered result matches the known answer, else what
  /// differs.
  std::function<std::string(const Json&)> check;
};

Query make(QueryKind kind, const char* model, int processes, int f, int k,
           int rounds) {
  Query q;
  q.kind = kind;
  q.model = model;
  q.processes = processes;
  q.participants = processes;
  q.f = f;
  q.k = k;
  q.rounds = rounds;
  return q;
}

std::vector<std::int64_t> ints(const Json& body, const char* key) {
  std::vector<std::int64_t> out;
  for (const Json& item : body.get(key)->items()) out.push_back(item.as_int());
  return out;
}

std::string expect_ints(const Json& body, const char* key,
                        const std::vector<std::int64_t>& want) {
  return ints(body, key) == want ? std::string()
                                 : std::string(key) + " differs";
}

std::string expect_verdict(const Json& body, bool possible, const char* why) {
  const bool exhausted = body.get("search_exhausted")->as_bool();
  return exhausted && body.get("possible")->as_bool() == possible
             ? std::string()
             : std::string(why);
}

// Sized so that construction (with the f-vector), homology (with SNF) and
// solve each take roughly a third of the battery. The pinned f-vectors of
// the orbit instances equal the full pipeline's on the same parameters.
std::vector<Instance> battery() {
  std::vector<Instance> out;

  // Lemma 12 on A^2 with n+1 = 4, f = 1 is 0-connected, so H~_0 = 0; the
  // higher Betti numbers are pinned. Orbit construction, reconstituted.
  Query homology = make(QueryKind::kHomology, "async", 4, 1, 0, 2);
  homology.max_dim = 3;
  homology.construction = "orbit";
  out.push_back({"homology_orbit_async_4_f1_r2", homology,
                 [](const Json& body) {
                   return expect_ints(body, "reduced_betti", {0, 513, 0, 20736});
                 }});

  // Exact (SNF) homology of the 2-round synchronous complex with n+1 = 4
  // and up to k = 2 crashes a round. Every process may crash, so Lemma 16's
  // bound does not apply and the complex is disconnected; the Betti numbers
  // are pinned (they equal the GF(p) rank path's) and there is no torsion.
  Query exact = make(QueryKind::kHomology, "sync", 4, 0, 2, 2);
  exact.max_dim = 1;
  exact.exact = true;
  out.push_back({"exact_homology_sync_4_k2_r2", exact, [](const Json& body) {
                   std::string why =
                       expect_ints(body, "reduced_betti", {82, 146});
                   for (const Json& dim : body.get("torsion")->items()) {
                     if (!dim.items().empty()) why += " torsion";
                   }
                   return why;
                 }});

  // Corollary 13: k-set agreement is impossible in the f-resilient async
  // model whenever k <= f.
  out.push_back({"decide_async_4_f2_k2",
                 make(QueryKind::kDecide, "async", 4, 2, 2, 1),
                 [](const Json& body) {
                   return expect_verdict(body, false, "Cor 13 says impossible");
                 }});

  // Theorem 18: with per-round cap k, solvable at floor(f/k)+1 rounds.
  out.push_back({"decide_sync_4_f2_k1_r3",
                 make(QueryKind::kDecide, "sync", 4, 2, 1, 3),
                 [](const Json& body) {
                   return expect_verdict(body, true, "Thm 18 says solvable");
                 }});

  // Full pipeline plus f-vector. Lemma 11: every round multiplies the
  // facets by prod_i sum_{j>=n-f} C(m, j) = 4^4 here, so A^2 has 256^2.
  out.push_back(
      {"fvector_async_4_f1_r2", make(QueryKind::kComplexStats, "async", 4, 1, 0, 2),
       [](const Json& body) {
         const auto per_round = static_cast<std::int64_t>(
             psph::core::async_round_facet_count(4, 4, 1));
         return (body.get("facets")->as_int() == per_round * per_round
                     ? std::string()
                     : std::string("facets differ")) +
                expect_ints(body, "f_vector", {1792, 22272, 64768, 65536});
       }});

  // Orbit construction plus the full f-vector by face-orbit counting.
  Query semisync = make(QueryKind::kComplexStats, "semisync", 5, 0, 1, 3);
  semisync.mu = 2;
  semisync.construction = "orbit";
  out.push_back({"orbit_fvector_semisync_5_k1_mu2_r3", semisync,
                 [](const Json& body) {
                   return expect_ints(body, "f_vector",
                                      {108645, 193660, 26590, 455, 1});
                 }});
  Query sync = make(QueryKind::kComplexStats, "sync", 5, 0, 1, 3);
  sync.construction = "orbit";
  out.push_back({"orbit_fvector_sync_5_k1_r3", sync, [](const Json& body) {
                   return expect_ints(body, "f_vector",
                                      {13885, 29470, 6990, 230, 1});
                 }});
  return out;
}

/// The layered mirror's answer in render_result's field names.
Json mirror_body(const Query& q, const LayeredResult& r) {
  const auto array = [](const auto& values) {
    Json out = Json::array();
    for (const auto v : values) out.push(Json::integer(static_cast<std::int64_t>(v)));
    return out;
  };
  Json body = Json::object();
  if (q.kind == QueryKind::kDecide) {
    body.set("possible", Json::boolean(r.solvable));
    body.set("search_exhausted", Json::boolean(r.exhausted));
  } else if (q.kind == QueryKind::kComplexStats) {
    body.set("facets", Json::integer(static_cast<std::int64_t>(r.facets)));
    body.set("f_vector", array(r.f_vector));
  } else {
    body.set("reduced_betti", array(r.betti));
  }
  return body;
}

/// Empty when every field of the mirror's body equals the program's.
std::string mirror_differs(const Json& program, const Json& mirror) {
  std::string out;
  for (const auto& [key, value] : mirror.entries()) {
    const Json* got = program.get(key);
    if (got == nullptr || got->dump() != value.dump()) out += " mirror " + key;
  }
  return out;
}

}  // namespace

int run_batch(int argc, char** argv) {
  bool trace = false;
  std::string work_dir;
  psph::util::Cli cli("psph_perfbench batch",
                      "run the batch_large battery once");
  cli.flag("trace", &trace, "record harness spans and the obs snapshot");
  cli.flag("work-dir", &work_dir, "scratch directory for the fresh stores");
  cli.parse(argc, argv);
  if (work_dir.empty()) throw std::runtime_error("--work-dir is required");
  psph::util::set_thread_count(affinity_threads());
  psph::obs::set_enabled(trace);
  psph::obs::set_event_capacity(0);

  const std::vector<Instance> instances = battery();

  Ledger ledger;
  Json rows = Json::array();
  std::int64_t failed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  double mirror_s = 0.0;  // traced: time in the layered replays
  double mirror_cpu_s = 0.0;
  const double first_job_epoch = epoch_seconds();
  const double cpu_start = self_cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& instance = instances[i];
    const fs::path store_dir = fs::path(work_dir) / ("store-" + std::to_string(i));
    std::vector<std::uint8_t> sealed;
    double compute_s = 0.0;
    const Clock::time_point run_start = Clock::now();
    {
      psph::sweep::SweepEngine engine({.cache_dir = store_dir.string()});
      psph::sweep::JobSpec job;
      job.kind = std::string("perfbench/") + instance.name;
      engine.run({job}, [&](const psph::sweep::JobSpec&, std::size_t) {
        const Clock::time_point compute_start = Clock::now();
        sealed = psph::serve::compute_sealed(instance.query);
        compute_s = seconds_since(compute_start);
        return sealed;
      });
      bytes_read += engine.stats().bytes_read;
      bytes_written += engine.stats().bytes_written;
      if (engine.stats().computed != 1) {
        throw std::runtime_error(std::string(instance.name) +
                                 ": the fresh store already held the job");
      }
    }
    const double run_s = seconds_since(run_start);
    const Json body = psph::serve::render_result(instance.query, sealed);
    fs::remove_all(store_dir);
    std::string why = instance.check(body);
    if (trace) {
      ledger.add("sweep.overhead", run_s - compute_s);
      const Clock::time_point mirror_start = Clock::now();
      const double mirror_cpu_start = self_cpu_seconds();
      psph::obs::set_enabled(false);
      why += mirror_differs(
          body, mirror_body(instance.query, run_layered(instance.query, ledger)));
      psph::obs::set_enabled(true);
      mirror_cpu_s += self_cpu_seconds() - mirror_cpu_start;
      mirror_s += seconds_since(mirror_start);
    }
    // Hand freed pages back, so the process peak is the largest instance's
    // footprint rather than a product of the allocator's history.
    ::malloc_trim(0);
    if (!why.empty()) {
      ++failed;
      std::fprintf(stderr, "batch_large: %s:%s%s: %s\n", instance.name,
                   why.front() == ' ' ? "" : " ", why.c_str(),
                   body.dump().c_str());
    }
    Json row = Json::object();
    row.set("name", Json::string(instance.name));
    row.set("wall_s", Json::number(run_s));
    row.set("ok", Json::boolean(why.empty()));
    rows.push(std::move(row));
  }
  const double wall_s = seconds_since(start) - mirror_s;
  const double cpu_s = self_cpu_seconds() - cpu_start - mirror_cpu_s;

  Json out = Json::object();
  out.set("attempted", Json::integer(static_cast<std::int64_t>(instances.size())));
  out.set("failed", Json::integer(failed));
  out.set("wall_s", Json::number(wall_s));
  out.set("cpu_s", Json::number(cpu_s));
  out.set("peak_rss_mb", Json::number(peak_rss_mb()));
  out.set("first_job_epoch", Json::number(first_job_epoch));
  out.set("threads", Json::integer(psph::util::thread_count()));
  out.set("simd", Json::string(psph::math::simd_level_name(psph::math::simd_level())));
  out.set("store_bytes_read", Json::integer(static_cast<std::int64_t>(bytes_read)));
  out.set("store_bytes_written",
          Json::integer(static_cast<std::int64_t>(bytes_written)));
  out.set("instances", std::move(rows));
  if (trace) {
    out.set("ledger", ledger.to_json());
    out.set("obs", obs_json(psph::obs::snapshot()));
  }
  std::printf("%s\n", out.dump().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
