// Lemma 21: M^r(S^m) is (m - (n - k) - 1)-connected when n >= (r+1)k.
// Swept over (n, k, μ, r) with hypothesis-violating rows marked.
//
// With --cache-dir verdicts are served from the result store (time column
// "-", deterministic rows); without it, output matches the original.

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
  util::Cli cli("lemma21_semisync_connectivity",
                "Lemma 21: M^r(S^m) connectivity sweep");
  cli.flag("cache-dir", &cache_dir,
           "result-store root; empty disables caching");
  cli.flag("mode", &mode,
           "construction backend: full | orbit (symmetry-reduced)");
  cli.flag("threads", &threads,
           "worker threads for uncached jobs (0 = PSPH_THREADS/default)");
  bench::ObsOptions obs_options;
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
  const std::int64_t mode_param = mode == "orbit" ? 1 : 0;

  bench::Report report(
      "Lemma 21",
      "M^r(S^m) is (m - (n - k) - 1)-connected when n >= (r+1)k");
  report.header(
      "  n+1 m+1  k mu  r hyp?   facets vertices  expect conn  build");

  const std::vector<std::array<int, 5>> grid{
      {3, 3, 1, 2, 1},
      {3, 3, 1, 3, 1},
      {3, 3, 1, 4, 1},
      {4, 4, 1, 2, 1},
      {4, 4, 1, 2, 2},
      {4, 3, 1, 2, 1},
      {4, 4, 1, 3, 1},
      {3, 3, 1, 2, 2},  // hypothesis violated: n = 2 < (r+1)k = 3
  };

  const auto emit = [&](const std::array<int, 5>& point,
                        const core::ConnectivityCheck& check,
                        const char* build_time) {
    const auto& [n1, m1, k, mu, r] = point;
    const bool hypothesis = (n1 - 1) >= (r + 1) * k;
    report.row("  %3d %3d %2d %2d %2d %4s %8zu %8zu %7d %4d  %s", n1, m1, k,
               mu, r, hypothesis ? "yes" : "no", check.facet_count,
               check.vertex_count, check.expected, check.measured,
               build_time);
    if (hypothesis) {
      report.check(check.satisfied,
                   "Lemma 21 at n+1=" + std::to_string(n1) + " k=" +
                       std::to_string(k) + " mu=" + std::to_string(mu) +
                       " r=" + std::to_string(r));
    }
  };

  if (cache_dir.empty()) {
    for (const auto& point : grid) {
      const auto& [n1, m1, k, mu, r] = point;
      util::Timer timer;
      const core::ConnectivityCheck check =
          core::check_semisync_connectivity(n1, m1, k, mu, r, construction);
      emit(point, check, timer.pretty().c_str());
    }
    const int obs_exit = bench::finish_obs(obs_options);
    const int exit_code = report.finish();
    return exit_code != 0 ? exit_code : obs_exit;
  }

  std::vector<sweep::JobSpec> jobs;
  for (const auto& [n1, m1, k, mu, r] : grid) {
    jobs.push_back({"lemma21/semisync-connectivity",
                    {n1, m1, k, mu, r, mode_param},
                    {}});
  }
  sweep::SweepEngine engine({.cache_dir = cache_dir});
  const std::vector<core::ConnectivityCheck> checks =
      sweep::run_sweep<core::ConnectivityCheck>(
          engine, jobs,
          [&construction](const sweep::JobSpec& spec, std::size_t) {
            return core::check_semisync_connectivity(
                static_cast<int>(spec.params[0]),
                static_cast<int>(spec.params[1]),
                static_cast<int>(spec.params[2]),
                static_cast<int>(spec.params[3]),
                static_cast<int>(spec.params[4]), construction);
          },
          store::serialize_connectivity_check,
          store::deserialize_connectivity_check);
  for (std::size_t i = 0; i < grid.size(); ++i) emit(grid[i], checks[i], "-");
  std::printf("sweep: %s\n", engine.stats().to_string().c_str());
  const int obs_exit = bench::finish_obs(obs_options);
  const int exit_code = report.finish();
  return exit_code != 0 ? exit_code : obs_exit;
}
