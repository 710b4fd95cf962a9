#pragma once

// Machine checks for the paper's numbered results. Each function builds the
// relevant construction, runs the homological-connectivity engine and/or
// decision-map search, and returns a structured verdict that tests assert
// on and bench binaries print.

#include <cstdint>
#include <string>
#include <vector>

#include "core/async_complex.h"
#include "core/construction.h"
#include "core/decision_search.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::core {

struct ConnectivityCheck {
  /// The bound the paper asserts (e.g. m - (n - f) - 1 for Lemma 12).
  int expected = 0;
  /// Homological connectivity measured up to `expected` (>= expected means
  /// the paper's claim holds on this instance).
  int measured = -2;
  bool satisfied = false;
  std::size_t facet_count = 0;
  std::size_t vertex_count = 0;
  int dimension = -1;

  std::string to_string() const;
};

/// Builds the input facet on processes 0..participants-1 with all-distinct
/// inputs 0..participants-1.
topology::Simplex rainbow_input(int participants, ViewRegistry& views,
                                topology::VertexArena& arena);

/// Corollary 6: ψ(S^m; U_0..U_m) is (m-1)-connected for nonempty U_i.
/// `value_set_sizes` gives |U_i| per position.
ConnectivityCheck check_pseudosphere_connectivity(
    const std::vector<int>& value_set_sizes);

/// Lemma 12: A^r(S^m) is (m - (n - f) - 1)-connected. `participants` = m+1,
/// `num_processes` = n+1. With mode == kOrbit the complex is built through
/// the symmetry-reduced pipeline (DESIGN §5.16) and reconstituted before
/// measuring — the verdict is value-identical either way.
ConnectivityCheck check_async_connectivity(
    int num_processes, int participants, int f, int r,
    ConstructionMode mode = ConstructionMode::kFull);

/// Lemmas 16 (r = 1) and 17: S^r(S^m) is (m - (n - k) - 1)-connected when
/// n >= rk + k. `participants` = m+1.
ConnectivityCheck check_sync_connectivity(
    int num_processes, int participants, int k, int r,
    ConstructionMode mode = ConstructionMode::kFull);

/// Lemma 21: M^r(S^m) is (m - (n - k) - 1)-connected when n >= (r+1)k.
ConnectivityCheck check_semisync_connectivity(
    int num_processes, int participants, int k, int mu, int r,
    ConstructionMode mode = ConstructionMode::kFull);

struct AgreementCheck {
  bool impossible = false;     // search proved no decision map exists
  bool possible = false;       // search found a witness
  bool search_exhausted = false;
  std::uint64_t nodes = 0;
  std::size_t protocol_facets = 0;
  std::size_t protocol_vertices = 0;
};

/// Corollary 13 instance: k-set agreement over inputs {0..k} on the
/// f-resilient r-round asynchronous complex with n+1 processes. The paper:
/// impossible whenever k <= f.
AgreementCheck check_async_agreement(int num_processes, int f, int k, int r,
                                     const SearchOptions& options = {});

/// Theorem 18 instance: k-set agreement on the r-round synchronous complex
/// (per-round failure cap k, budget f). Impossible while r <= floor(f/k)
/// (for n > f + k); the FloodSet rule succeeds at floor(f/k) + 1.
AgreementCheck check_sync_agreement(int num_processes, int f, int k, int r,
                                    const SearchOptions& options = {});

/// Corollary 22's round-structure core: k-set agreement on the r-round
/// semi-synchronous complex with per-round cap k.
AgreementCheck check_semisync_agreement(int num_processes, int f, int k,
                                        int mu, int r,
                                        const SearchOptions& options = {});

/// The FloodSet/min-seen rule on the r-round synchronous complex: returns
/// true if it solves k-set agreement on every facet (inputs {0..k}).
bool floodmin_solves_sync(int num_processes, int f, int k, int r);

struct Corollary10Check {
  /// Per participant count m+1 in [n+1-f, n+1]: the measured connectivity
  /// of P(S^m) and the required (m - (n - k) - 1).
  struct Level {
    int participants = 0;
    int required = 0;
    int measured = -2;
    bool satisfied = false;
  };
  std::vector<Level> levels;
  /// All levels satisfied: Corollary 10's hypothesis holds, so k-set
  /// agreement must be impossible with f failures.
  bool hypothesis_holds = false;
  /// The search's verdict on the same instance (full input complex).
  bool search_impossible = false;
  bool search_exhausted = false;
};

/// Corollary 10 instantiated for the asynchronous model: measures
/// P(S^m)-connectivity for every m with n-f <= m <= n, and cross-checks the
/// implied impossibility against the exhaustive search.
Corollary10Check check_corollary10_async(int num_processes, int f, int k,
                                         int r,
                                         const SearchOptions& options = {});

struct Theorem5Check {
  int c = 0;  // the constant in the theorem (n - f for the async protocol)
  /// Hypothesis: P(S^ℓ) is (ℓ - c - 1)-connected for every face of S^n.
  bool hypothesis_holds = false;
  /// Conclusion: P(ψ(Pⁿ; U_0..U_n)) is (n - c - 1)-connected.
  ConnectivityCheck conclusion;
};

/// Theorem 5 instantiated with the one-round asynchronous protocol
/// (c = n - f): verifies the per-face hypothesis, builds P over the input
/// pseudosphere with the given per-process value sets, and measures the
/// conclusion's connectivity.
Theorem5Check check_theorem5_async(int num_processes, int f,
                                   const std::vector<std::vector<std::int64_t>>&
                                       per_process_values);

/// Theorem 7: the same conclusion for a *union* of input pseudospheres
/// ψ(Pⁿ; A_0), ..., ψ(Pⁿ; A_t) with ∩ A_i nonempty. `families` lists the
/// uniform value sets A_i.
Theorem5Check check_theorem7_async(
    int num_processes, int f,
    const std::vector<std::vector<std::int64_t>>& families);

}  // namespace psph::core
