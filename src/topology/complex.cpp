#include "topology/complex.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace psph::topology {

SimplicialComplex::SimplicialComplex(const SimplicialComplex& other) {
  *this = other;
}

SimplicialComplex& SimplicialComplex::operator=(
    const SimplicialComplex& other) {
  if (this == &other) return *this;
  // Lock the source's lazy tables so copying while another thread builds
  // them stays race-free; the destination mutexes are fresh.
  std::scoped_lock lock(other.face_cache_mutex_, other.index_mutex_);
  slots_ = other.slots_;
  live_count_ = other.live_count_;
  min_facet_dim_ = other.min_facet_dim_;
  max_facet_dim_ = other.max_facet_dim_;
  by_vertex_ = other.by_vertex_;
  facet_set_ = other.facet_set_;
  index_valid_.store(other.index_valid_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  face_cache_ = other.face_cache_;
  face_cache_valid_.store(
      other.face_cache_valid_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

SimplicialComplex::SimplicialComplex(SimplicialComplex&& other) noexcept {
  *this = std::move(other);
}

SimplicialComplex& SimplicialComplex::operator=(
    SimplicialComplex&& other) noexcept {
  if (this == &other) return *this;
  // Moving-from implies exclusive access to `other`; no lock needed.
  slots_ = std::move(other.slots_);
  live_count_ = other.live_count_;
  min_facet_dim_ = other.min_facet_dim_;
  max_facet_dim_ = other.max_facet_dim_;
  by_vertex_ = std::move(other.by_vertex_);
  facet_set_ = std::move(other.facet_set_);
  index_valid_.store(other.index_valid_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  face_cache_ = std::move(other.face_cache_);
  face_cache_valid_.store(
      other.face_cache_valid_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.live_count_ = 0;
  other.min_facet_dim_ = std::numeric_limits<int>::max();
  other.max_facet_dim_ = -1;
  other.by_vertex_.clear();
  other.facet_set_.clear();
  other.index_valid_.store(false, std::memory_order_relaxed);
  other.face_cache_valid_.store(false, std::memory_order_relaxed);
  return *this;
}

void SimplicialComplex::add_facet(Simplex s) {
  if (s.empty()) {
    throw std::invalid_argument("add_facet: empty simplex");
  }
  ensure_index();
  if (facet_set_.count(s) != 0) return;
  if (dominated(s)) return;
  invalidate_face_cache();

  // Remove facets *strictly* contained in s (equal-dimension facets cannot
  // be: a same-size subset is equality, which the hash check above already
  // excluded). Any strictly contained facet shares s's vertices, so
  // scanning the per-vertex slot lists of s's vertices — filtered to lower
  // dimension — finds them all. On pure complexes both scans are no-ops, so
  // bulk construction (pseudosphere products) is O(1) per facet.
  if (min_facet_dim_ < s.dimension()) {
    std::vector<std::size_t> candidates;
    for (VertexId v : s.vertices()) {
      const auto it = by_vertex_.find(v);
      if (it == by_vertex_.end()) continue;
      for (std::size_t slot : it->second) candidates.push_back(slot);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (std::size_t slot : candidates) {
      const Simplex& facet = slots_[slot];
      if (facet.empty()) continue;  // tombstone
      if (facet.dimension() < s.dimension() && facet.is_face_of(s)) {
        facet_set_.erase(facet);
        slots_[slot] = Simplex();
        --live_count_;
      }
    }
  }

  const std::size_t slot = slots_.size();
  for (VertexId v : s.vertices()) by_vertex_[v].push_back(slot);
  min_facet_dim_ = std::min(min_facet_dim_, s.dimension());
  max_facet_dim_ = std::max(max_facet_dim_, s.dimension());
  facet_set_.insert(s);
  slots_.push_back(std::move(s));
  ++live_count_;
}

bool SimplicialComplex::dominated(const Simplex& s) const {
  // Only *strictly* larger facets can properly contain s (improper
  // containment, i.e. equality, is handled by the facet_set_ hash lookups
  // at the call sites). A facet containing s must contain s's first vertex.
  if (max_facet_dim_ <= s.dimension()) return false;
  ensure_index();
  const auto it = by_vertex_.find(s[0]);
  if (it == by_vertex_.end()) return false;
  for (std::size_t slot : it->second) {
    const Simplex& facet = slots_[slot];
    if (!facet.empty() && facet.dimension() > s.dimension() &&
        s.is_face_of(facet)) {
      return true;
    }
  }
  return false;
}

void SimplicialComplex::ensure_index() const {
  if (index_valid_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_valid_.load(std::memory_order_relaxed)) return;
  facet_set_.reserve(live_count_);
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    const Simplex& facet = slots_[slot];
    if (facet.empty()) continue;
    facet_set_.insert(facet);
    for (VertexId v : facet.vertices()) by_vertex_[v].push_back(slot);
  }
  index_valid_.store(true, std::memory_order_release);
}

void SimplicialComplex::reserve(std::size_t additional) {
  slots_.reserve(slots_.size() + additional);
  if (index_valid_.load(std::memory_order_relaxed)) {
    facet_set_.reserve(facet_set_.size() + additional);
  }
}

void SimplicialComplex::add_facets(std::vector<Simplex> facets) {
  if (facets.empty()) return;
  int batch_dim = facets[0].dimension();
  for (const Simplex& s : facets) {
    if (s.empty()) throw std::invalid_argument("add_facet: empty simplex");
    if (s.dimension() != batch_dim) batch_dim = -2;  // mixed batch
  }
  const bool complex_compatible =
      live_count_ == 0 ||
      (min_facet_dim_ == batch_dim && max_facet_dim_ == batch_dim);
  if (batch_dim < 0 || !complex_compatible) {
    // Mixed dimensions somewhere: domination is possible, take the scanning
    // path facet by facet.
    for (Simplex& s : facets) add_facet(std::move(s));
    return;
  }
  // Pure lane: every live facet and every incoming facet has dimension
  // batch_dim, so no facet can strictly contain another — domination scans
  // are provably no-ops and only exact-duplicate detection remains.
  invalidate_face_cache();
  min_facet_dim_ = batch_dim;
  max_facet_dim_ = batch_dim;
  if (live_count_ != 0) {
    ensure_index();
    for (Simplex& s : facets) {
      if (!facet_set_.insert(s).second) continue;  // exact duplicate
      const std::size_t slot = slots_.size();
      for (VertexId v : s.vertices()) by_vertex_[v].push_back(slot);
      slots_.push_back(std::move(s));
      ++live_count_;
    }
    return;
  }

  // Adopt into the empty complex (no slots: facets are only ever erased by
  // a larger insertion, which stays live). Duplicates are found in one
  // open-addressing table of slot numbers (linear probing, load <= 1/2);
  // the first occurrence of each facet takes the next slot, so the slot
  // order is the batch order minus later duplicates. The facet index is
  // dropped and rebuilt over the slots by the first query that needs it.
  facet_set_.clear();
  by_vertex_.clear();
  index_valid_.store(false, std::memory_order_relaxed);
  std::size_t cap = 16;
  while (cap < 2 * facets.size()) cap <<= 1;
  constexpr std::size_t kEmpty = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> table(cap, kEmpty);
  std::vector<std::uint64_t> slot_hash;
  slot_hash.reserve(facets.size());
  slots_.reserve(facets.size());
  for (Simplex& s : facets) {
    const std::uint64_t h = SimplexHash{}(s);
    std::size_t at = h & (cap - 1);
    while (table[at] != kEmpty &&
           !(slot_hash[table[at]] == h && slots_[table[at]] == s)) {
      at = (at + 1) & (cap - 1);
    }
    if (table[at] != kEmpty) continue;  // exact duplicate
    table[at] = slots_.size();
    slot_hash.push_back(h);
    slots_.push_back(std::move(s));
  }
  live_count_ = slots_.size();
}

void SimplicialComplex::merge(const SimplicialComplex& other) {
  // Batch through add_facets so pure-into-pure merges (unions of equal-rank
  // pseudospheres) take the fast lane.
  std::vector<Simplex> batch;
  batch.reserve(other.live_count_);
  for (const Simplex& facet : other.slots_) {
    if (!facet.empty()) batch.push_back(facet);
  }
  add_facets(std::move(batch));
}

std::vector<Simplex> SimplicialComplex::facets() const {
  std::vector<Simplex> result;
  result.reserve(live_count_);
  for (const Simplex& facet : slots_) {
    if (!facet.empty()) result.push_back(facet);
  }
  std::sort(result.begin(), result.end());
  return result;
}

void SimplicialComplex::for_each_facet(
    const std::function<void(const Simplex&)>& fn) const {
  for (const Simplex& facet : slots_) {
    if (!facet.empty()) fn(facet);
  }
}

bool SimplicialComplex::contains(const Simplex& s) const {
  if (s.empty()) return !empty();
  ensure_index();
  return dominated(s) || facet_set_.count(s) != 0;
}

void SimplicialComplex::invalidate_face_cache() {
  // Mutators run with exclusive access (same contract as std containers),
  // so relaxed ordering suffices.
  face_cache_valid_.store(false, std::memory_order_relaxed);
  face_cache_.clear();
}

void SimplicialComplex::build_face_cache() const {
  face_cache_.clear();
  if (max_facet_dim_ < 0) return;
  face_cache_.resize(static_cast<std::size_t>(max_facet_dim_) + 1);

  // Top-down level enumeration: the d-simplexes are exactly the facets of
  // dimension d plus the codim-1 faces of the (d+1)-simplexes, so each face
  // is generated from the level above instead of re-enumerating the full
  // 2^k subset lattice of every facet. Each level's dedup map doubles as
  // its final index, and the codim-1 lookups that dedup level d are
  // recorded as boundary links for level d+1 — the boundary operator comes
  // out of the same hashing that builds the cache. Probes go through the
  // transparent hash with a reused scratch buffer, so only first sightings
  // of a face allocate.
  std::vector<std::vector<const Simplex*>> facets_by_dim(
      static_cast<std::size_t>(max_facet_dim_) + 1);
  for (const Simplex& facet : slots_) {
    if (facet.empty()) continue;
    facets_by_dim[static_cast<std::size_t>(facet.dimension())].push_back(
        &facet);
  }

  // Per-level dedup runs on a local open-addressing table (stored hash +
  // pool id, linear probing) instead of the public unordered_map index: no
  // node allocation and no Simplex copy per unique face, which matters
  // because this build sits on the homology hot path. The public per-level
  // index map is materialized lazily in face_index_of_dim, which only
  // diagnostics and tests call.
  const SimplexHash hasher;
  std::vector<std::uint64_t> slot_hash;
  std::vector<std::uint32_t> slot_id;  // pool id + 1; 0 = empty
  std::vector<VertexId> scratch;
  for (int d = max_facet_dim_; d >= 0; --d) {
    FaceTable& table = face_cache_[static_cast<std::size_t>(d)];
    std::vector<Simplex> pool;  // insertion order, re-sorted below
    // Each (d+1)-simplex contributes d+2 codim-1 probes and interior faces
    // are shared by ≥2 cofaces, so half the probe count (plus this level's
    // facets) bounds the live entries closely enough in practice.
    const std::size_t above_count =
        d < max_facet_dim_
            ? face_cache_[static_cast<std::size_t>(d) + 1].faces.size()
            : 0;
    const std::size_t estimate =
        facets_by_dim[static_cast<std::size_t>(d)].size() +
        above_count * (static_cast<std::size_t>(d) + 2) / 2 + 1;
    pool.reserve(estimate);
    std::size_t cap = 16;
    while (cap < estimate * 2) cap <<= 1;
    slot_hash.assign(cap, 0);
    slot_id.assign(cap, 0);
    const auto grow = [&]() {
      const std::size_t bigger = cap * 2;
      std::vector<std::uint64_t> old_hash(bigger, 0);
      std::vector<std::uint32_t> old_id(bigger, 0);
      old_hash.swap(slot_hash);
      old_id.swap(slot_id);
      for (std::size_t s = 0; s < cap; ++s) {
        if (old_id[s] == 0) continue;
        std::size_t at = old_hash[s] & (bigger - 1);
        while (slot_id[at] != 0) at = (at + 1) & (bigger - 1);
        slot_hash[at] = old_hash[s];
        slot_id[at] = old_id[s];
      }
      cap = bigger;
    };
    // Returns the pool id for `key`, appending a new Simplex on first
    // sighting. `h` is the key's SimplexHash value.
    const auto intern = [&](const std::vector<VertexId>& key,
                            std::uint64_t h) {
      std::size_t at = h & (cap - 1);
      while (slot_id[at] != 0) {
        if (slot_hash[at] == h &&
            pool[slot_id[at] - 1].vertices() == key) {
          return static_cast<std::size_t>(slot_id[at] - 1);
        }
        at = (at + 1) & (cap - 1);
      }
      const std::size_t id = pool.size();
      pool.emplace_back(key);
      slot_hash[at] = h;
      slot_id[at] = static_cast<std::uint32_t>(id + 1);
      if ((pool.size() + 1) * 4 > cap * 3) grow();
      return id;
    };
    // Facets of dimension d first. Maximality makes them distinct from
    // every face generated from the level above (a facet that appeared
    // there would be a face of another facet), but they still seed the
    // table so probes from above dedup against them.
    for (const Simplex* facet : facets_by_dim[static_cast<std::size_t>(d)]) {
      intern(facet->vertices(), hasher(facet->vertices()));
    }
    FaceTable* above = d < max_facet_dim_
                           ? &face_cache_[static_cast<std::size_t>(d) + 1]
                           : nullptr;
    if (above != nullptr) {
      above->boundary_links.reserve(above->faces.size() *
                                    (static_cast<std::size_t>(d) + 2));
      for (const Simplex& face : above->faces) {
        const std::vector<VertexId>& vs = face.vertices();
        for (std::size_t omit = 0; omit < vs.size(); ++omit) {
          scratch.clear();
          for (std::size_t i = 0; i < vs.size(); ++i) {
            if (i != omit) scratch.push_back(vs[i]);
          }
          above->boundary_links.push_back(intern(scratch, hasher(scratch)));
        }
      }
    }
    // Re-rank this level into sorted order; fix the links recorded for the
    // level above in place.
    const std::size_t n = pool.size();
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;
    std::sort(perm.begin(), perm.end(),
              [&pool](std::size_t a, std::size_t b) {
                return pool[a] < pool[b];
              });
    std::vector<std::size_t> sorted_rank(n);
    for (std::size_t i = 0; i < n; ++i) sorted_rank[perm[i]] = i;
    table.faces.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      table.faces[i] = std::move(pool[perm[i]]);
    }
    if (above != nullptr) {
      for (std::size_t& link : above->boundary_links) {
        link = sorted_rank[link];
      }
    }
  }
}

void SimplicialComplex::warm_face_cache() const {
  if (face_cache_valid_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(face_cache_mutex_);
  if (face_cache_valid_.load(std::memory_order_relaxed)) return;
  build_face_cache();
  face_cache_valid_.store(true, std::memory_order_release);
}

const SimplicialComplex::FaceTable* SimplicialComplex::face_table(
    int d) const {
  if (d < 0 || d > max_facet_dim_) return nullptr;
  warm_face_cache();
  return &face_cache_[static_cast<std::size_t>(d)];
}

const std::vector<Simplex>& SimplicialComplex::simplices_of_dim(int d) const {
  static const std::vector<Simplex> kNoFaces;
  const FaceTable* table = face_table(d);
  return table ? table->faces : kNoFaces;
}

const std::unordered_map<Simplex, std::size_t, SimplexHash, SimplexEq>&
SimplicialComplex::face_index_of_dim(int d) const {
  static const std::unordered_map<Simplex, std::size_t, SimplexHash,
                                  SimplexEq>
      kNoIndex;
  if (face_table(d) == nullptr) return kNoIndex;
  // The index map is not needed by the homology engine, so the cache build
  // skips it; materialize it on first request (diagnostics and tests).
  std::lock_guard<std::mutex> lock(face_cache_mutex_);
  FaceTable& table = face_cache_[static_cast<std::size_t>(d)];
  if (table.index.empty() && !table.faces.empty()) {
    table.index.reserve(table.faces.size());
    for (std::size_t i = 0; i < table.faces.size(); ++i) {
      table.index.emplace(table.faces[i], i);
    }
  }
  return table.index;
}

const std::vector<std::size_t>& SimplicialComplex::boundary_links_of_dim(
    int d) const {
  static const std::vector<std::size_t> kNoLinks;
  if (d < 1) return kNoLinks;
  const FaceTable* table = face_table(d);
  return table ? table->boundary_links : kNoLinks;
}

std::size_t SimplicialComplex::count_of_dim(int d) const {
  return simplices_of_dim(d).size();
}

std::vector<VertexId> SimplicialComplex::vertex_ids() const {
  std::unordered_set<VertexId> seen;
  for (const Simplex& facet : slots_) {
    if (facet.empty()) continue;
    for (VertexId v : facet.vertices()) seen.insert(v);
  }
  std::vector<VertexId> result(seen.begin(), seen.end());
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::size_t> SimplicialComplex::f_vector() const {
  warm_face_cache();
  std::vector<std::size_t> result;
  result.reserve(face_cache_.size());
  for (const FaceTable& table : face_cache_) {
    result.push_back(table.faces.size());
  }
  return result;
}

long long SimplicialComplex::euler_characteristic() const {
  long long chi = 0;
  long long sign = 1;
  for (std::size_t count : f_vector()) {
    chi += sign * static_cast<long long>(count);
    sign = -sign;
  }
  return chi;
}

bool SimplicialComplex::is_pure() const {
  for (const Simplex& facet : slots_) {
    if (!facet.empty() && facet.dimension() != max_facet_dim_) return false;
  }
  return true;
}

bool SimplicialComplex::operator==(const SimplicialComplex& other) const {
  if (live_count_ != other.live_count_) return false;
  other.ensure_index();
  for (const Simplex& facet : slots_) {
    if (!facet.empty() && other.facet_set_.count(facet) == 0) return false;
  }
  return true;
}

bool SimplicialComplex::is_subcomplex_of(
    const SimplicialComplex& other) const {
  for (const Simplex& facet : slots_) {
    if (!facet.empty() && !other.contains(facet)) return false;
  }
  return true;
}

SimplicialComplex SimplicialComplex::apply_vertex_map(
    const std::function<VertexId(VertexId)>& map, bool allow_collapse) const {
  SimplicialComplex image;
  for (const Simplex& facet : slots_) {
    if (facet.empty()) continue;
    std::vector<VertexId> mapped;
    mapped.reserve(facet.size());
    for (VertexId v : facet.vertices()) mapped.push_back(map(v));
    std::sort(mapped.begin(), mapped.end());
    const auto dup = std::unique(mapped.begin(), mapped.end());
    if (dup != mapped.end()) {
      if (!allow_collapse) {
        throw std::invalid_argument(
            "apply_vertex_map: map collapses a simplex (pass "
            "allow_collapse=true if intended)");
      }
      mapped.erase(dup, mapped.end());
    }
    image.add_facet(Simplex(std::move(mapped)));
  }
  return image;
}

std::string SimplicialComplex::to_string() const {
  std::ostringstream out;
  out << "Complex(dim=" << dimension() << ", facets=" << live_count_ << ")[";
  bool first = true;
  for (const Simplex& facet : facets()) {
    if (!first) out << ", ";
    first = false;
    out << facet.to_string();
  }
  out << "]";
  return out.str();
}

}  // namespace psph::topology
