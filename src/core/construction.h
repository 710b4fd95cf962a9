#pragma once

// Parallel multi-round protocol-complex construction.
//
// The r-round complexes of every model are inductive unions: expand each
// facet of the one-round complex by another round, recursively. The naive
// recursion (kept as the *_protocol_complex_seq reference functions) is
// depth-first and serial. This module replaces it with a level-synchronous
// pipeline that is parallel across facets and expands each repeated facet
// once, while producing *bit-identical* registries, arenas, and complexes
// at any thread count:
//
//   1. DEDUPE   — the frontier (all facets awaiting one round of expansion)
//                 is deduplicated by (facet, model params). Hash-consing
//                 makes repeated facets common from round 2 on.
//   2. EXPAND   — the unique items are expanded concurrently via
//                 util::parallel_for. Each worker runs the shared one-round
//                 expander (round_ops.h) against a ScratchViews /
//                 ScratchArena overlay: reads resolve against the frozen
//                 canonical registries (const-thread-safe find()); newly
//                 created views and vertices intern into thread-local
//                 overlay storage with ids offset past the canonical sizes.
//   3. REMAP    — a serial pass walks the items in frontier order and
//                 interns each overlay's views and vertices into the
//                 canonical registries in creation order. Because both the
//                 frontier order and each overlay's creation order are
//                 fixed by the model's enumeration order, canonical ids
//                 never depend on thread scheduling. (A new round's views
//                 only ever reference canonical parent states, never each
//                 other, so no heard-list rewriting is required.) The
//                 produced facets are then rewritten through each item's id
//                 map in parallel — no interning, one item per task.
//   4. CONSUME  — full mode: the final level's facets are gathered in
//                 item/group/facet order and adopted by ONE
//                 SimplicialComplex::add_facets call (span
//                 construction.adopt): a pure level is deduplicated in one
//                 flat table with the first occurrence kept, and the
//                 result's facet index stays unbuilt until queried; a
//                 non-pure level keeps add_facet's maximality rules. The
//                 result's slot order (for_each_facet, hence compile_csp's
//                 facet ids) is the production order minus duplicates and
//                 dominated facets. Orbit mode canonicalizes each final
//                 facet into the orbit table instead. Earlier rounds
//                 enqueue children with the failure budget reduced per
//                 adversary group. A level's expansions are dropped once it
//                 has been consumed.
//
// DEDUPE makes every level's items unique, and items of different levels
// never share states, so no expansion is ever repeated within a build.

// Two additions ride on the same level loop (DESIGN §5.16):
//
//   * ConstructionMode::kOrbit — the orbit-quotient pipeline. The paper's
//     round operators commute with joint process-name / input-value
//     permutations, so when the input is symmetric under a group G the
//     frontier partitions into G-orbits and one canonical representative
//     per orbit suffices. DEDUPE canonicalizes each incoming facet (orbit.h)
//     before keying, CONSUME canonicalizes the final-round facets into an
//     orbit table carrying stabilizer sizes, and the exact facet count,
//     f-vector, and homology of the *full* complex are recovered from orbit
//     data (orbit_full_f_vector, reconstitute_full) — equal, value for
//     value, to what the unreduced pipeline reports wherever both can run.
//
//   * Frontier spill — with ConstructionOptions::frontier_budget_bytes > 0
//     the raw child stream between levels is encoded into fixed-size chunks
//     and handed to a FrontierStorage (store::FrontierSpool seals them into
//     checksummed envelopes on disk), so peak memory holds the deduped level
//     plus one chunk instead of the whole raw frontier. Chunks are drained
//     in write order, which is the exact push order of the in-RAM path, so
//     results are bit-identical at any budget.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/orbit.h"
#include "core/round_ops.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

/// How the level-synchronous pipeline treats the frontier. The builders'
/// names fix it (plain vs. *_orbit entry points); callers that choose at run
/// time, such as the check_*_connectivity functions, take this value.
enum class ConstructionMode : std::uint8_t {
  kFull = 0,   // expand every deduplicated facet
  kOrbit = 1,  // expand one canonical representative per symmetry orbit
};

/// Sink/source for spilled frontier chunks. The pipeline writes encoded
/// chunks in push order during CONSUME and reads them back in the same
/// order at the next level's DEDUPE, then clears. Implementations:
/// InMemoryFrontierStorage below (tests, budget-only runs) and
/// store::FrontierSpool (sealed envelopes on disk).
class FrontierStorage {
 public:
  virtual ~FrontierStorage() = default;
  /// Appends one encoded chunk.
  virtual void append_chunk(const std::vector<std::uint8_t>& bytes) = 0;
  virtual std::size_t chunk_count() const = 0;
  /// Chunk `index` in append order; throws on out-of-range or (for durable
  /// implementations) corrupt bytes.
  virtual std::vector<std::uint8_t> read_chunk(std::size_t index) const = 0;
  /// Drops every chunk (one level has been fully consumed).
  virtual void clear() = 0;
};

/// Chunks held in RAM — exercises the exact encode/chunk/drain path without
/// touching disk. Also the pipeline's fallback when a budget is set but no
/// storage is supplied.
class InMemoryFrontierStorage final : public FrontierStorage {
 public:
  void append_chunk(const std::vector<std::uint8_t>& bytes) override {
    chunks_.push_back(bytes);
  }
  std::size_t chunk_count() const override { return chunks_.size(); }
  std::vector<std::uint8_t> read_chunk(std::size_t index) const override {
    if (index >= chunks_.size()) {
      throw std::out_of_range("InMemoryFrontierStorage: chunk index");
    }
    return chunks_[index];
  }
  void clear() override { chunks_.clear(); }

 private:
  std::vector<std::vector<std::uint8_t>> chunks_;
};

struct ConstructionOptions {
  /// 0 keeps the whole next-level frontier in RAM (the historical path).
  /// Positive: children are encoded as they are produced and flushed to
  /// `storage` in chunks of ~budget/2 bytes, bounding frontier RAM.
  std::uint64_t frontier_budget_bytes = 0;
  /// Where spilled chunks go. Ignored when the budget is 0; when the budget
  /// is positive and this is null the pipeline uses a private
  /// InMemoryFrontierStorage (chunked, but not out-of-core).
  FrontierStorage* storage = nullptr;
};

/// Thread-local view overlay for the scratch-expansion phase. Lookups fall
/// through to the frozen canonical registry (find(), const-thread-safe);
/// new views get local ids starting at the canonical size, in creation
/// order. The overlay never copies the base, so construction is O(1).
class ScratchViews {
 public:
  explicit ScratchViews(const ViewRegistry& base)
      : base_(base), base_size_(base.size()) {}

  int round(StateId id) const {
    return id < base_size_
               ? base_.round(id)
               : local_[static_cast<std::size_t>(id - base_size_)].round;
  }

  StateId intern_round(ProcessId pid, int round,
                       std::vector<HeardEntry> heard) {
    View v = make_round_view(pid, round, std::move(heard));
    if (const std::optional<StateId> hit = base_.find(v)) return *hit;
    const auto it = index_.find(v);
    if (it != index_.end()) return it->second;
    const StateId id = static_cast<StateId>(base_size_ + local_.size());
    index_.emplace(v, id);
    local_.push_back(std::move(v));
    return id;
  }

  std::size_t base_size() const { return base_size_; }

  /// Local views in creation order (ids base_size(), base_size()+1, ...).
  /// Leaves the overlay empty.
  std::vector<View> take_local() {
    index_.clear();
    return std::move(local_);
  }

 private:
  const ViewRegistry& base_;
  const std::size_t base_size_;
  std::vector<View> local_;
  std::unordered_map<View, StateId, ViewHash> index_;
};

/// Thread-local vertex overlay, same scheme as ScratchViews. Sound because
/// every label in the base arena references a canonical state (id below the
/// view base size), while labels minted during scratch expansion that
/// reference *local* states carry ids at or past it — the two can never
/// collide in the base index.
class ScratchArena {
 public:
  explicit ScratchArena(const topology::VertexArena& base)
      : base_(base), base_size_(base.size()) {}

  topology::ProcessId pid(topology::VertexId id) const {
    return label_of(id).pid;
  }
  StateId state(topology::VertexId id) const { return label_of(id).state; }

  topology::VertexId intern(topology::ProcessId pid, StateId state) {
    if (const std::optional<topology::VertexId> hit = base_.find(pid, state)) {
      return *hit;
    }
    const topology::VertexLabel label{pid, state};
    const auto it = index_.find(label);
    if (it != index_.end()) return it->second;
    const topology::VertexId id =
        static_cast<topology::VertexId>(base_size_ + local_.size());
    index_.emplace(label, id);
    local_.push_back(label);
    return id;
  }

  std::size_t base_size() const { return base_size_; }

  /// Local labels in creation order. Leaves the overlay empty.
  std::vector<topology::VertexLabel> take_local() {
    index_.clear();
    return std::move(local_);
  }

 private:
  const topology::VertexLabel& label_of(topology::VertexId id) const {
    return id < base_size_
               ? base_.label(id)
               : local_[static_cast<std::size_t>(id) - base_size_];
  }

  const topology::VertexArena& base_;
  const std::size_t base_size_;
  std::vector<topology::VertexLabel> local_;
  std::unordered_map<topology::VertexLabel, topology::VertexId,
                     topology::VertexLabelHash>
      index_;
};

// ---- orbit-quotient results ----

/// One final-facet orbit: the canonical representative, its stabilizer size
/// (so |orbit| = |G| / stabilizer), and whether the orbit is dominated in
/// the full complex (its members are strict faces of some maximal facet;
/// dominated orbits contribute faces but no maximal facets).
struct OrbitRecord {
  topology::Simplex rep;
  std::uint32_t stabilizer = 1;
  bool dominated = false;
};

/// The orbit pipeline's output. `reduced` is the complex spanned by the
/// non-dominated representatives — an exact fundamental domain of the full
/// complex's maximal facets. The full complex itself is never materialized:
/// its facet count is reconstituted here via orbit–stabilizer, its f-vector
/// by orbit_full_f_vector, and (when it fits in RAM, e.g. for differential
/// tests) the complex itself by reconstitute_full.
struct OrbitComplexResult {
  topology::SimplicialComplex reduced;
  std::vector<OrbitRecord> orbits;  // first-seen order, dominated included
  SymmetryGroup group;
  /// Exact maximal-facet count of the full complex:
  /// Σ over non-dominated orbits of |G| / stabilizer.
  std::uint64_t full_facet_count = 0;
};

/// Exact f-vector of the full complex from orbit data: every face orbit of
/// the full complex has a representative among the faces of the
/// non-dominated facet representatives, so canonicalizing those faces and
/// summing orbit sizes per dimension counts all faces exactly once.
std::vector<std::size_t> orbit_full_f_vector(const OrbitComplexResult& result,
                                             ViewRegistry& views,
                                             topology::VertexArena& arena);

/// Materializes the full complex by applying every group element to every
/// non-dominated representative. Memory is proportional to the full facet
/// count — intended for differential tests and overlap verification, not
/// for beyond-the-wall sizes.
topology::SimplicialComplex reconstitute_full(const OrbitComplexResult& result,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena);

// Full-pipeline entry points: A^r(S), S^r(S), M^r(S) and IIS^r(S) from one
// input facet, and (the _over forms) their unions over every facet of an
// input complex — Section 4's P(I). Output is bit-identical to the matching
// *_protocol_complex_seq reference at any thread count. `options` controls
// frontier spill; the orbit pipeline returns orbit data through the *_orbit
// entry points below.

topology::SimplicialComplex async_protocol_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

topology::SimplicialComplex async_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

topology::SimplicialComplex sync_protocol_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

topology::SimplicialComplex sync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

topology::SimplicialComplex semisync_protocol_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

topology::SimplicialComplex semisync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

topology::SimplicialComplex iis_protocol_complex(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, const ConstructionOptions& options = {});

topology::SimplicialComplex iis_protocol_complex_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, const ConstructionOptions& options = {});

// Orbit-quotient entry points. Single-facet forms take G = Aut(input facet)
// (the full diagonal symmetric group for a rainbow input); _over forms take
// G = Aut(input complex). Output values (counts, f-vectors, homology of the
// reconstituted complex) match the full pipeline's wherever both can run;
// vertex/state ids are mode-local.

OrbitComplexResult async_protocol_complex_orbit(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

OrbitComplexResult async_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

OrbitComplexResult sync_protocol_complex_orbit(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

OrbitComplexResult sync_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

OrbitComplexResult semisync_protocol_complex_orbit(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

OrbitComplexResult semisync_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena,
    const ConstructionOptions& options = {});

OrbitComplexResult iis_protocol_complex_orbit(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, const ConstructionOptions& options = {});

OrbitComplexResult iis_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, const ConstructionOptions& options = {});

// Compatibility overloads for perfbench/harness/layers.cpp, which passes an
// empty cache object to the orbit builders. They forward to the entry
// points above; nothing else may use them.
struct ConstructionCache {};

inline OrbitComplexResult async_protocol_complex_orbit(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&) {
  return async_protocol_complex_orbit(input, params, views, arena);
}

inline OrbitComplexResult sync_protocol_complex_orbit(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&) {
  return sync_protocol_complex_orbit(input, params, views, arena);
}

inline OrbitComplexResult semisync_protocol_complex_orbit(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&) {
  return semisync_protocol_complex_orbit(input, params, views, arena);
}

}  // namespace psph::core
