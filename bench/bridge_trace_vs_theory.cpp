// Bridge cross-validation: exhaustive executor enumerations must regenerate
// the theoretical protocol complexes *exactly* (literal equality of facet
// sets over a shared vertex arena). This is the strongest end-to-end check
// that the executable model semantics and the paper's constructions agree.

#include "bench_util.h"
#include "core/async_complex.h"
#include "core/construction.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "sim/async_executor.h"
#include "sim/bridge.h"
#include "sim/semisync_round_enum.h"
#include "sim/sync_executor.h"
#include "util/timer.h"

int main() {
  using namespace psph;
  bench::Report report(
      "Bridge",
      "exhaustive simulation == theoretical construction (literal equality)");
  report.header("  model  n+1  f/k  r     traces   facets  equal?   time");

  // Synchronous instances.
  for (const auto& [n1, k, r] : std::vector<std::array<int, 3>>{
           {3, 1, 1}, {3, 1, 2}, {4, 1, 1}, {4, 2, 1}, {3, 2, 1}}) {
    util::Timer timer;
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex theory = core::sync_protocol_complex(
        input, {n1, r * k, k, r}, views, arena);
    sim::TraceComplexBuilder builder(arena);
    std::vector<std::int64_t> inputs;
    for (int p = 0; p < n1; ++p) inputs.push_back(p);
    sim::enumerate_sync_executions(
        inputs, r, r * k, k, views,
        [&](const sim::Trace& trace) { builder.add(trace); });
    const bool equal = builder.complex() == theory;
    report.row("  sync   %3d  %3d %2d %10zu %8zu  %-6s %s", n1, k, r,
               builder.traces_added(), theory.facet_count(),
               equal ? "yes" : "NO", timer.pretty().c_str());
    report.check(equal, "sync bridge at n+1=" + std::to_string(n1) + " k=" +
                            std::to_string(k) + " r=" + std::to_string(r));
  }

  // Asynchronous instances.
  for (const auto& [n1, f, r] : std::vector<std::array<int, 3>>{
           {3, 1, 1}, {3, 1, 2}, {3, 2, 1}, {4, 1, 1}, {4, 2, 1}}) {
    util::Timer timer;
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex theory =
        core::async_protocol_complex(input, {n1, f, r}, views, arena);
    sim::TraceComplexBuilder builder(arena);
    std::vector<std::int64_t> inputs;
    for (int p = 0; p < n1; ++p) inputs.push_back(p);
    sim::AsyncRunConfig config{n1, f, r, {}};
    sim::enumerate_async_executions(
        inputs, config, views,
        [&](const sim::Trace& trace) { builder.add(trace); });
    const bool equal = builder.complex() == theory;
    report.row("  async  %3d  %3d %2d %10zu %8zu  %-6s %s", n1, f, r,
               builder.traces_added(), theory.facet_count(),
               equal ? "yes" : "NO", timer.pretty().c_str());
    report.check(equal, "async bridge at n+1=" + std::to_string(n1) + " f=" +
                            std::to_string(f) + " r=" + std::to_string(r));
  }

  // Semi-synchronous instances (microround-level message simulation).
  for (const auto& [n1, k, mu] : std::vector<std::array<int, 3>>{
           {3, 1, 2}, {3, 1, 3}, {3, 2, 2}, {4, 1, 2}, {4, 1, 3}}) {
    util::Timer timer;
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex theory = core::semisync_round_complex(
        input, {n1, k, k, mu, 1}, views, arena);
    sim::TraceComplexBuilder builder(arena);
    std::vector<std::int64_t> inputs;
    for (int p = 0; p < n1; ++p) inputs.push_back(p);
    sim::enumerate_semisync_round_executions(
        inputs, k, mu, views,
        [&](const sim::Trace& trace) { builder.add(trace); });
    const bool equal = builder.complex() == theory;
    report.row("  semi   %3d  %3d %2d %10zu %8zu  %-6s %s (mu=%d)", n1, k, 1,
               builder.traces_added(), theory.facet_count(),
               equal ? "yes" : "NO", timer.pretty().c_str(), mu);
    report.check(equal, "semisync bridge at n+1=" + std::to_string(n1) +
                            " k=" + std::to_string(k) + " mu=" +
                            std::to_string(mu));
  }
  return report.finish();
}
