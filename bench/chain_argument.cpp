// The indistinguishability-chain engine (Section 1's similarity structure):
// similarity-degree histograms of the protocol complexes, and explicit
// chain witnesses proving consensus impossible — a third, independent
// derivation of the same verdicts as the homology and search engines.

#include "bench_util.h"
#include "core/async_complex.h"
#include "core/chains.h"
#include "core/construction.h"
#include "core/pseudosphere.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "util/timer.h"

int main() {
  using namespace psph;
  bench::Report report(
      "Chain argument",
      "similarity chains between forced facets refute consensus; their "
      "absence coincides with solvability");

  report.header(
      "  model n+1  f  r   facets  max-deg  chain?  length  verdict-match");
  struct Case {
    const char* model;
    int n1, f, r;
    bool expect_chain;  // consensus impossible on this instance?
  };
  for (const Case& c : std::vector<Case>{
           {"async", 2, 1, 1, true},
           {"async", 3, 1, 1, true},
           {"async", 3, 2, 1, true},
           {"async", 3, 1, 2, true},
           {"sync", 3, 1, 1, true},
           {"sync", 3, 1, 2, false},  // solvable at 2 rounds
           {"sync", 4, 1, 2, false},
       }) {
    util::Timer timer;
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::SimplicialComplex inputs =
        core::input_complex(c.n1, {0, 1}, views, arena);
    topology::SimplicialComplex protocol;
    if (std::string(c.model) == "async") {
      protocol = core::async_protocol_complex_over(
          inputs, {c.n1, c.f, c.r}, views, arena);
    } else {
      protocol = core::sync_protocol_complex_over(
          inputs, {c.n1, c.f, c.f, c.r}, views, arena);
    }
    const std::size_t max_degree = core::max_similarity_degree(protocol);
    const auto witness =
        core::consensus_chain_witness(protocol, views, arena);
    const bool match = witness.has_value() == c.expect_chain;
    report.row("  %-5s %3d %2d %2d %8zu %8zu  %-6s %6zu  %s (%s)", c.model,
               c.n1, c.f, c.r, protocol.facet_count(), max_degree,
               witness ? "yes" : "no",
               witness ? witness->chain.size() : 0, match ? "yes" : "NO",
               timer.pretty().c_str());
    report.check(match, std::string("chain presence matches verdict (") +
                            c.model + " n+1=" + std::to_string(c.n1) +
                            " f=" + std::to_string(c.f) + " r=" +
                            std::to_string(c.r) + ")");
    if (witness) {
      // Validate the witness links.
      const core::SimilarityGraph graph = core::similarity_graph(protocol);
      bool links_ok = true;
      for (std::size_t i = 1; i < witness->chain.size(); ++i) {
        if (graph.facets[witness->chain[i - 1]]
                .intersect(graph.facets[witness->chain[i]])
                .empty()) {
          links_ok = false;
        }
      }
      report.check(links_ok, "witness chain links share vertices");
    }
  }

  report.header("  similarity histogram (async, n+1=3, f=1, binary inputs)");
  {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::SimplicialComplex inputs =
        core::input_complex(3, {0, 1}, views, arena);
    const topology::SimplicialComplex protocol =
        core::async_protocol_complex_over(inputs, {3, 1, 1}, views, arena);
    const core::SimilarityGraph graph = core::similarity_graph(protocol);
    for (std::size_t s = 1; s < graph.degree_histogram.size(); ++s) {
      report.row("    pairs sharing %zu vertex(es): %zu", s,
                 graph.degree_histogram[s]);
    }
    report.check(graph.degree_histogram.size() >= 3,
                 "degrees of similarity up to 2 realized");
  }
  return report.finish();
}
