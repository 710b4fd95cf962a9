#pragma once

// Exhaustive search for a k-set-agreement decision map on an explicitly
// constructed protocol complex — the *sequential reference* backtracker.
//
// Theorem 9 / Corollary 10 prove nonexistence from connectivity; for a
// *finite* complex the statement "no decision map exists" is decidable by
// search, and this module decides it. A completed search with no solution
// is therefore a proof of impossibility for that instance; a witness
// assignment is a proof of possibility. Constraint propagation (most-
// constrained vertex first, domains filtered through saturated facets)
// makes the small instances of Corollaries 13/18/22 tractable.
//
// Production solvability queries go through the engine in src/solve
// (compiled CSP, incremental propagation, conflict-driven orbit-aware
// learning); this backtracker is kept verbatim as
// the oracle its differential suite (tests/solve_test.cpp) compares every
// engine stage against. Prefer search_decision_map_seq in new call sites —
// the name records which side of that comparison you are on.

#include <cstdint>
#include <unordered_map>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::core {

struct SearchOptions {
  /// Abort after exploring this many search nodes (0 = unlimited).
  std::uint64_t node_limit = 200'000'000;
  /// Most-constrained-vertex ordering with saturated-facet domain
  /// filtering. Disable to measure the heuristic's effect (the ablation
  /// bench does); plain fixed-order search explores far more nodes.
  bool use_mrv = true;
};

struct SearchResult {
  /// True if a valid decision map was found.
  bool decidable = false;
  /// True if the search ran to completion (decidable or proven impossible);
  /// false only when the node limit aborted it, in which case `decidable`
  /// is meaningless.
  bool exhausted = false;
  /// Witness assignment when decidable.
  std::unordered_map<topology::VertexId, std::int64_t> assignment;
  std::uint64_t nodes_explored = 0;
};

/// Searches for a decision map for k-set agreement on `protocol` (validity
/// from full-information views; agreement on every facet).
SearchResult search_decision_map(const topology::SimplicialComplex& protocol,
                                 int k, const ViewRegistry& views,
                                 const topology::VertexArena& arena,
                                 const SearchOptions& options = {});

/// Canonical name for the sequential oracle (see the header comment).
inline SearchResult search_decision_map_seq(
    const topology::SimplicialComplex& protocol, int k,
    const ViewRegistry& views, const topology::VertexArena& arena,
    const SearchOptions& options = {}) {
  return search_decision_map(protocol, k, views, arena, options);
}

}  // namespace psph::core
