#pragma once

// Symmetry quotients for protocol complexes (DESIGN §5.16).
//
// Every construction in the paper commutes with relabeling: permute the
// process names by π and the input values by σ and each round operator maps
// executions of the relabeled input to relabeled executions. Whenever the
// *input* is invariant under a joint relabeling g = (π, σ), the whole
// r-round complex is too, so its frontier at every level — and its final
// facet set — partitions into G-orbits for G = Aut(input) ≤ S_pids × S_vals.
// The orbit-quotient pipeline (construction.h, ConstructionMode::kOrbit)
// expands exactly one canonical representative per orbit and recovers the
// full complex's counts, f-vector, and homology from orbit data.
//
// This header provides the group machinery:
//
//   * SymmetryGroup — the automorphism group of an input facet or input
//     complex, enumerated explicitly (|G| ≤ (#participants)!, tiny for the
//     process counts these constructions reach).
//   * OrbitContext  — deterministic canonicalization of facets under G.
//     A facet's canonical form is the lexicographically least relabeled
//     vertex vector over all g ∈ G, where relabeled views are hash-consed
//     through the same ViewRegistry/VertexArena the pipeline builds in.
//     Relabeling is memoized per (group element, state) and per (group
//     element, vertex) in row tables: one row of |G| images per state or
//     vertex that is actually relabeled, so repeated canonicalizations
//     amortize to array reads and untouched ids cost one row index.
//
// Orbit sizes come from orbit–stabilizer: the number of g mapping a facet
// to its canonical form is |Stab|, hence |orbit| = |G| / |Stab|. Because
// canonical forms are interned deterministically (facets in frontier order,
// group elements in enumeration order), orbit-mode output is bit-identical
// across thread counts and across spill configurations.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

/// One joint relabeling g = (π, σ): a process-name permutation plus an
/// input-value permutation. Both maps are total on the labels they can
/// meet: pids outside `pid_map` and values outside `value_map` are fixed.
struct SymmetryElement {
  /// Sorted by .first; π(pid) for participating pids.
  std::vector<std::pair<ProcessId, ProcessId>> pid_map;
  /// Sorted by .first; σ(value) for input values in use.
  std::vector<std::pair<std::int64_t, std::int64_t>> value_map;

  ProcessId map_pid(ProcessId pid) const;
  std::int64_t map_value(std::int64_t value) const;
  bool is_identity() const;
};

/// The joint automorphism group of an input, enumerated element by element.
/// Element 0 is always the identity.
class SymmetryGroup {
 public:
  /// The trivial group {id}. Orbit mode under it degenerates to the full
  /// pipeline (every orbit has size 1).
  static SymmetryGroup identity();

  /// Aut of a single input facet whose vertices carry round-0 views:
  /// all (π, σ) with σ(input_of(p)) = input_of(π(p)) for every participant
  /// p. For all-distinct inputs (the rainbow facet) this is the full
  /// diagonal copy of S_{participants}. Throws std::invalid_argument if a
  /// vertex state is not a round-0 view.
  static SymmetryGroup for_input_facet(const topology::Simplex& input,
                                       const ViewRegistry& views,
                                       const topology::VertexArena& arena);

  /// Aut of an input complex (round-0 labeled): all (π, σ) whose induced
  /// vertex map is an automorphism of the complex (checked with
  /// topology::is_isomorphism). Enumerates π over participant
  /// permutations and σ over value permutations; throws
  /// std::invalid_argument when participants! * values! exceeds
  /// `max_candidates` (defensive cap — the inputs these constructions take
  /// stay far below it).
  static SymmetryGroup for_input_complex(
      const topology::SimplicialComplex& inputs, const ViewRegistry& views,
      const topology::VertexArena& arena,
      std::uint64_t max_candidates = 1u << 24);

  std::size_t size() const { return elements_.size(); }
  const std::vector<SymmetryElement>& elements() const { return elements_; }
  const SymmetryElement& element(std::size_t i) const { return elements_[i]; }

 private:
  std::vector<SymmetryElement> elements_;
};

/// The result of canonicalizing one facet: the orbit representative and the
/// number of group elements that map the facet onto the representative
/// (= |Stab| by orbit–stabilizer, so orbit_size = |G| / stabilizer).
struct CanonicalFacet {
  topology::Simplex rep;
  std::uint32_t stabilizer = 1;

  std::uint64_t orbit_size(std::size_t group_size) const {
    return static_cast<std::uint64_t>(group_size) / stabilizer;
  }
};

/// Memoized relabeling + canonicalization engine bound to one registry /
/// arena pair. NOT thread-safe: canonicalize interns views and vertices, so
/// the pipeline calls it only from its serial phases (which is also what
/// keeps interning order — and therefore ids — deterministic).
class OrbitContext {
 public:
  OrbitContext(SymmetryGroup group, ViewRegistry& views,
               topology::VertexArena& arena);

  const SymmetryGroup& group() const { return group_; }

  /// g-image of an interned state, interning the result. Memoized per
  /// (element index, state).
  StateId relabel_state(std::size_t element_index, StateId state);

  /// g-image of a vertex (pid, state) as an interned VertexId.
  topology::VertexId relabel_vertex(std::size_t element_index,
                                    topology::VertexId vertex);

  /// g-image of a whole facet (vertex set; Simplex re-sorts).
  topology::Simplex relabel_facet(std::size_t element_index,
                                  const topology::Simplex& facet);

  /// Canonical orbit representative: the lexicographically least relabeled
  /// vertex vector over all g, plus the stabilizer count.
  CanonicalFacet canonicalize(const topology::Simplex& facet);

  /// Cumulative number of canonicalize() calls (obs/stats plumbing).
  std::uint64_t canonicalized() const { return canonicalized_; }

 private:
  /// Relabel images stored one row per key: row_of[key] is the key's row
  /// (kNoRow until the key is first relabeled) and cells[row * |G| + g] its
  /// image under element g (`kUnset` until computed). Only keys that are
  /// actually relabeled pay for |G| cells; every other key costs one row
  /// index. Rows are never freed while the context lives.
  template <typename Image>
  struct RelabelRows {
    static constexpr std::uint32_t kNoRow = 0xffffffffU;
    static constexpr Image kUnset = static_cast<Image>(-1);

    std::vector<std::uint32_t> row_of;
    std::vector<Image> cells;

    /// The memoized image, or kUnset.
    Image find(std::size_t key, std::size_t g, std::size_t width) const;
    /// Records image as key's image under g, allocating key's row first if
    /// it has none; returns the number of cells allocated (0 or width).
    std::size_t store(std::size_t key, std::size_t g, std::size_t width,
                      Image image);
  };

  SymmetryGroup group_;
  ViewRegistry& views_;
  topology::VertexArena& arena_;
  RelabelRows<StateId> state_rows_;
  RelabelRows<topology::VertexId> vertex_rows_;
  std::uint64_t canonicalized_ = 0;
};

}  // namespace psph::core
