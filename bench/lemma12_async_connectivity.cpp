// Lemma 12: A^r(S^m) is (m - (n - f) - 1)-connected. Sweeps (n, m, f, r)
// over everything that builds in seconds and reports measured homological
// connectivity against the bound.
//
// With --cache-dir the sweep runs through sweep::SweepEngine: verdicts are
// served from the result store when present (the time column shows "-" so
// rows are byte-identical between cold and warm runs) and a sweep stats
// line is appended. Without the flag, output is identical to the uncached
// original.

#include <array>
#include <vector>

#include "bench_util.h"
#include "core/theorems.h"
#include "store/serialize.h"
#include "sweep/sweep.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace psph;
  std::string cache_dir;
  std::string mode = "full";
  int threads = 0;
  bench::ObsOptions obs_options;
  util::Cli cli("lemma12_async_connectivity",
                "Lemma 12: A^r(S^m) connectivity sweep");
  cli.flag("cache-dir", &cache_dir,
           "result-store root; empty disables caching");
  cli.flag("mode", &mode,
           "construction backend: full | orbit (symmetry-reduced)");
  cli.flag("threads", &threads,
           "worker threads for uncached jobs (0 = PSPH_THREADS/default)");
  bench::add_obs_flags(cli, &obs_options);
  cli.parse(argc, argv);
  if (threads > 0) util::set_thread_count(threads);
  if (mode != "full" && mode != "orbit") {
    std::fprintf(stderr, "unknown --mode '%s' (choices: full orbit)\n",
                 mode.c_str());
    return 2;
  }
  const core::ConstructionMode construction =
      mode == "orbit" ? core::ConstructionMode::kOrbit
                      : core::ConstructionMode::kFull;
  // The backend is part of the job identity: cached verdicts from the two
  // pipelines must never alias, even though their values agree.
  const std::int64_t mode_param = mode == "orbit" ? 1 : 0;

  bench::Report report("Lemma 12",
                       "A^r(S^m) is (m - (n - f) - 1)-connected");
  report.header("  n+1 m+1  f  r   facets vertices  expect conn  build");

  const std::vector<std::array<int, 4>> grid{{3, 3, 1, 1},
                                             {3, 3, 1, 2},
                                             {3, 3, 1, 3},
                                             {3, 3, 2, 1},
                                             {3, 3, 2, 2},
                                             {3, 2, 1, 1},
                                             {4, 4, 1, 1},
                                             {4, 4, 2, 1},
                                             {4, 3, 1, 1},
                                             {4, 3, 2, 1},
                                             {4, 4, 3, 1},
                                             {5, 5, 1, 1}};

  const auto check_row = [&](const std::array<int, 4>& point,
                             const core::ConnectivityCheck& check) {
    const auto& [n1, m1, f, r] = point;
    report.check(check.satisfied, "connectivity bound at n+1=" +
                                      std::to_string(n1) + " m+1=" +
                                      std::to_string(m1) + " f=" +
                                      std::to_string(f) + " r=" +
                                      std::to_string(r));
  };

  if (cache_dir.empty()) {
    for (const auto& [n1, m1, f, r] : grid) {
      util::Timer timer;
      const core::ConnectivityCheck check =
          core::check_async_connectivity(n1, m1, f, r, construction);
      report.row("  %3d %3d %2d %2d %8zu %8zu %7d %4d  %s", n1, m1, f, r,
                 check.facet_count, check.vertex_count, check.expected,
                 check.measured, timer.pretty().c_str());
      check_row({n1, m1, f, r}, check);
    }
    const int obs_exit = bench::finish_obs(obs_options);
    const int exit_code = report.finish();
    return exit_code != 0 ? exit_code : obs_exit;
  }

  std::vector<sweep::JobSpec> jobs;
  for (const auto& [n1, m1, f, r] : grid) {
    jobs.push_back(
        {"lemma12/async-connectivity", {n1, m1, f, r, mode_param}, {}});
  }
  sweep::SweepEngine engine({.cache_dir = cache_dir});
  const std::vector<core::ConnectivityCheck> checks =
      sweep::run_sweep<core::ConnectivityCheck>(
          engine, jobs,
          [&construction](const sweep::JobSpec& spec, std::size_t) {
            return core::check_async_connectivity(
                static_cast<int>(spec.params[0]),
                static_cast<int>(spec.params[1]),
                static_cast<int>(spec.params[2]),
                static_cast<int>(spec.params[3]), construction);
          },
          store::serialize_connectivity_check,
          store::deserialize_connectivity_check);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& [n1, m1, f, r] = grid[i];
    report.row("  %3d %3d %2d %2d %8zu %8zu %7d %4d  %s", n1, m1, f, r,
               checks[i].facet_count, checks[i].vertex_count,
               checks[i].expected, checks[i].measured, "-");
    check_row(grid[i], checks[i]);
  }
  std::printf("sweep: %s\n", engine.stats().to_string().c_str());
  const int obs_exit = bench::finish_obs(obs_options);
  const int exit_code = report.finish();
  return exit_code != 0 ? exit_code : obs_exit;
}
