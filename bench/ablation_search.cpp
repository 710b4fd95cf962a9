// Ablation: decision-search strategies on identical instances, same
// verdicts — the node counts show which machinery is load-bearing for the
// impossibility proofs.
//
// Default (--engine=seq) reproduces the seed ablation: the backtracker's
// most-constrained-vertex ordering with saturated-facet domain filtering
// (DESIGN.md §5.4) versus plain fixed-order backtracking.
//
// --engine=propagate|learn instead pits that seq backtracker (MRV, the
// strong baseline) against the solvability engine (DESIGN.md §5.17) at the
// chosen stage, so the propagation and learning increments can each be
// measured in isolation.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/theorems.h"
#include "solve/decide.h"
#include "solve/engine.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

struct Case {
  const char* model;
  int n1, f, k, r;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases{
      {"async", 2, 1, 1, 1},
      {"async", 3, 1, 1, 1},
      {"async", 3, 1, 2, 1},
      {"async", 3, 2, 2, 1},  // wait-free 2-set agreement: the hard one
      {"async", 3, 2, 3, 1},
      {"sync", 3, 1, 1, 1},
      {"sync", 3, 1, 1, 2},
      {"sync", 4, 1, 1, 1},
  };
  return kCases;
}

int run_seq_ablation() {
  using namespace psph;
  bench::Report report(
      "Ablation: decision-search heuristics",
      "MRV + saturated-facet filtering vs fixed-order backtracking");
  report.header(
      "  model n+1  f  k  r   nodes(mrv)  time    nodes(fixed)  time   "
      "same-verdict?");

  for (const Case& c : cases()) {
    core::SearchOptions mrv;
    core::SearchOptions fixed;
    fixed.use_mrv = false;
    fixed.node_limit = 50'000'000;

    const auto run = [&](const core::SearchOptions& options) {
      if (std::string(c.model) == "async") {
        return core::check_async_agreement(c.n1, c.f, c.k, c.r, options);
      }
      return core::check_sync_agreement(c.n1, c.f, c.k, c.r, options);
    };

    util::Timer t1;
    const core::AgreementCheck with_mrv = run(mrv);
    const std::string mrv_time = t1.pretty();
    util::Timer t2;
    const core::AgreementCheck without = run(fixed);
    const std::string fixed_time = t2.pretty();

    const bool same = !without.search_exhausted ||
                      with_mrv.impossible == without.impossible;
    report.row("  %-5s %3d %2d %2d %2d %12llu  %-7s %12llu  %-7s %s",
               c.model, c.n1, c.f, c.k, c.r,
               static_cast<unsigned long long>(with_mrv.nodes),
               mrv_time.c_str(),
               static_cast<unsigned long long>(without.nodes),
               fixed_time.c_str(),
               without.search_exhausted ? (same ? "yes" : "NO")
                                        : "fixed hit limit");
    report.check(with_mrv.search_exhausted, "MRV search exhausted");
    report.check(same, "verdicts agree (when both complete)");
  }
  return report.finish();
}

int run_engine_ablation(psph::solve::EngineStage stage,
                        const std::string& stage_label) {
  using namespace psph;
  bench::Report report(
      "Ablation: solvability engine (" + stage_label + ") vs seq backtracker",
      "same instances, same verdicts; engine nodes show what " + stage_label +
          " buys over the seed MRV search");
  report.header(
      "  model n+1  f  k  r  nodes(engine)  time    nodes(seq)  time   "
      "same-verdict?");

  for (const Case& c : cases()) {
    solve::DecideRequest request;
    request.model = std::string(c.model) == "async" ? solve::Model::kAsync
                                                    : solve::Model::kSync;
    request.processes = c.n1;
    request.f = c.f;
    request.k = c.k;
    request.rounds = c.r;

    const std::unique_ptr<solve::Instance> instance =
        solve::build_instance(request);
    solve::EngineOptions options;
    options.stage = stage;
    options.canonical_witness = false;  // time the decision, not the lex-min

    util::Timer t1;
    const solve::SolveOutcome outcome = solve::solve(instance->problem, options);
    const std::string engine_time = t1.pretty();

    core::SearchOptions seq_options;
    seq_options.node_limit = 50'000'000;
    util::Timer t2;
    const core::AgreementCheck seq =
        std::string(c.model) == "async"
            ? core::check_async_agreement(c.n1, c.f, c.k, c.r, seq_options)
            : core::check_sync_agreement(c.n1, c.f, c.k, c.r, seq_options);
    const std::string seq_time = t2.pretty();

    const bool same = !seq.search_exhausted ||
                      outcome.solvable == !seq.impossible;
    report.row("  %-5s %3d %2d %2d %2d %13llu  %-7s %10llu  %-7s %s",
               c.model, c.n1, c.f, c.k, c.r,
               static_cast<unsigned long long>(outcome.stats.nodes),
               engine_time.c_str(),
               static_cast<unsigned long long>(seq.nodes), seq_time.c_str(),
               seq.search_exhausted ? (same ? "yes" : "NO")
                                    : "seq hit limit");
    report.check(outcome.exhausted, "engine search exhausted");
    report.check(same, "verdicts agree (when both complete)");
  }
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace psph;
  std::string engine = "seq";
  util::Cli cli("ablation_search",
                "Decision-search ablation: seq MRV-vs-fixed, or the "
                "solvability engine staged against the seq backtracker");
  cli.flag_choice("engine", &engine, {"seq", "propagate", "learn"},
                  "search strategy to ablate");
  cli.parse(argc, argv);

  if (engine == "seq") return run_seq_ablation();
  const solve::EngineStage stage = engine == "propagate"
                                      ? solve::EngineStage::kPropagate
                                      : solve::EngineStage::kLearn;
  return run_engine_ablation(stage, engine);
}
