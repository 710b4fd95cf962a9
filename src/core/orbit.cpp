#include "core/orbit.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>

#include "obs/obs.h"
#include "topology/isomorphism.h"

namespace psph::core {

namespace {

// Relabel-row cells allocated by every OrbitContext (orbit.h): |G| per
// state or vertex that is relabeled under at least one element.
obs::Counter g_obs_table_cells("construction.orbit_table_cells");

template <typename K, typename V>
V mapped_or_self(const std::vector<std::pair<K, V>>& table, K key) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const std::pair<K, V>& entry, K k) { return entry.first < k; });
  if (it != table.end() && it->first == key) return it->second;
  return key;
}

/// Round-0 (pid, input) labels of an input facet, sorted by pid. Throws if
/// any vertex state is not a round-0 view.
std::vector<std::pair<ProcessId, std::int64_t>> input_labels(
    const topology::Simplex& input, const ViewRegistry& views,
    const topology::VertexArena& arena) {
  std::vector<std::pair<ProcessId, std::int64_t>> labels;
  for (const topology::VertexId v : input.vertices()) {
    const View& view = views.view(arena.state(v));
    if (view.round != 0) {
      throw std::invalid_argument(
          "SymmetryGroup: input vertex state is not a round-0 view");
    }
    labels.emplace_back(arena.pid(v), view.input);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

ProcessId SymmetryElement::map_pid(ProcessId pid) const {
  return mapped_or_self(pid_map, pid);
}

std::int64_t SymmetryElement::map_value(std::int64_t value) const {
  return mapped_or_self(value_map, value);
}

bool SymmetryElement::is_identity() const {
  for (const auto& [from, to] : pid_map) {
    if (from != to) return false;
  }
  for (const auto& [from, to] : value_map) {
    if (from != to) return false;
  }
  return true;
}

SymmetryGroup SymmetryGroup::identity() {
  SymmetryGroup group;
  group.elements_.push_back(SymmetryElement{});
  return group;
}

SymmetryGroup SymmetryGroup::for_input_facet(
    const topology::Simplex& input, const ViewRegistry& views,
    const topology::VertexArena& arena) {
  const std::vector<std::pair<ProcessId, std::int64_t>> labels =
      input_labels(input, views, arena);
  std::vector<ProcessId> pids;
  pids.reserve(labels.size());
  for (const auto& [pid, value] : labels) pids.push_back(pid);

  SymmetryGroup group;
  std::vector<std::size_t> perm(pids.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  // std::next_permutation over index positions enumerates all |pids|!
  // candidate π (in lexicographic order, identity first). For each, σ is
  // forced by σ(value_of(p)) = value_of(π(p)); the candidate survives iff
  // that assignment is a well-defined bijection on the values in use.
  do {
    std::vector<std::pair<std::int64_t, std::int64_t>> value_map;
    bool ok = true;
    for (std::size_t i = 0; i < labels.size() && ok; ++i) {
      const std::int64_t from = labels[i].second;
      const std::int64_t to = labels[perm[i]].second;
      bool found = false;
      for (const auto& [existing_from, existing_to] : value_map) {
        if (existing_from == from) {
          ok = existing_to == to;
          found = true;
          break;
        }
        if (existing_to == to) {  // σ must stay injective
          ok = existing_from == from;
          found = ok;
          break;
        }
      }
      if (!found && ok) value_map.emplace_back(from, to);
    }
    if (!ok) continue;
    SymmetryElement element;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      element.pid_map.emplace_back(pids[i], pids[perm[i]]);
    }
    std::sort(value_map.begin(), value_map.end());
    element.value_map = std::move(value_map);
    group.elements_.push_back(std::move(element));
  } while (std::next_permutation(perm.begin(), perm.end()));

  // next_permutation visited the identity first, so element 0 is id.
  return group;
}

SymmetryGroup SymmetryGroup::for_input_complex(
    const topology::SimplicialComplex& inputs, const ViewRegistry& views,
    const topology::VertexArena& arena, std::uint64_t max_candidates) {
  std::set<ProcessId> pid_set;
  std::set<std::int64_t> value_set;
  std::vector<topology::VertexId> vertex_ids = inputs.vertex_ids();
  for (const topology::VertexId v : vertex_ids) {
    const View& view = views.view(arena.state(v));
    if (view.round != 0) {
      throw std::invalid_argument(
          "SymmetryGroup: input vertex state is not a round-0 view");
    }
    pid_set.insert(arena.pid(v));
    value_set.insert(view.input);
  }
  const std::vector<ProcessId> pids(pid_set.begin(), pid_set.end());
  const std::vector<std::int64_t> values(value_set.begin(), value_set.end());

  std::uint64_t candidates = 1;
  for (std::size_t i = 2; i <= pids.size(); ++i) candidates *= i;
  for (std::size_t i = 2; i <= values.size(); ++i) {
    candidates *= i;
    if (candidates > max_candidates) {
      throw std::invalid_argument(
          "SymmetryGroup::for_input_complex: candidate count exceeds cap");
    }
  }
  if (candidates > max_candidates) {
    throw std::invalid_argument(
        "SymmetryGroup::for_input_complex: candidate count exceeds cap");
  }

  SymmetryGroup group;
  std::vector<std::size_t> pid_perm(pids.size());
  std::iota(pid_perm.begin(), pid_perm.end(), std::size_t{0});
  do {
    std::vector<std::size_t> value_perm(values.size());
    std::iota(value_perm.begin(), value_perm.end(), std::size_t{0});
    do {
      SymmetryElement element;
      for (std::size_t i = 0; i < pids.size(); ++i) {
        element.pid_map.emplace_back(pids[i], pids[pid_perm[i]]);
      }
      for (std::size_t i = 0; i < values.size(); ++i) {
        element.value_map.emplace_back(values[i], values[value_perm[i]]);
      }
      // The induced vertex map: (p, v) -> (π(p), σ(v)). It must land on
      // existing vertices and be an automorphism of the facet set — checked
      // with the isomorphism certificate machinery.
      topology::VertexMap vertex_map;
      bool total = true;
      for (const topology::VertexId v : vertex_ids) {
        const View& view = views.view(arena.state(v));
        const ProcessId target_pid = element.map_pid(arena.pid(v));
        const std::int64_t target_value = element.map_value(view.input);
        View target;
        target.pid = target_pid;
        target.round = 0;
        target.input = target_value;
        const std::optional<StateId> state = views.find(target);
        if (!state) {
          total = false;
          break;
        }
        const std::optional<topology::VertexId> image =
            arena.find(target_pid, *state);
        if (!image) {
          total = false;
          break;
        }
        vertex_map[v] = *image;
      }
      if (total && topology::is_automorphism(inputs, vertex_map)) {
        group.elements_.push_back(std::move(element));
      }
    } while (std::next_permutation(value_perm.begin(), value_perm.end()));
  } while (std::next_permutation(pid_perm.begin(), pid_perm.end()));

  if (group.elements_.empty() || !group.elements_.front().is_identity()) {
    throw std::logic_error(
        "SymmetryGroup::for_input_complex: identity element missing");
  }
  return group;
}

template <typename Image>
Image OrbitContext::RelabelRows<Image>::find(std::size_t key, std::size_t g,
                                             std::size_t width) const {
  if (key >= row_of.size() || row_of[key] == kNoRow) return kUnset;
  return cells[static_cast<std::size_t>(row_of[key]) * width + g];
}

template <typename Image>
std::size_t OrbitContext::RelabelRows<Image>::store(std::size_t key,
                                                    std::size_t g,
                                                    std::size_t width,
                                                    Image image) {
  if (key >= row_of.size()) row_of.resize(key + 1, kNoRow);
  std::size_t allocated = 0;
  if (row_of[key] == kNoRow) {
    const std::size_t row = cells.size() / width;
    if (row >= kNoRow) {
      throw std::length_error("OrbitContext: relabel row table is full");
    }
    row_of[key] = static_cast<std::uint32_t>(row);
    cells.resize(cells.size() + width, kUnset);
    allocated = width;
  }
  cells[static_cast<std::size_t>(row_of[key]) * width + g] = image;
  return allocated;
}

OrbitContext::OrbitContext(SymmetryGroup group, ViewRegistry& views,
                           topology::VertexArena& arena)
    : group_(std::move(group)), views_(views), arena_(arena) {}

StateId OrbitContext::relabel_state(std::size_t element_index, StateId state) {
  const std::size_t width = group_.size();
  const StateId hit = state_rows_.find(state, element_index, width);
  if (hit != RelabelRows<StateId>::kUnset) return hit;

  const SymmetryElement& g = group_.element(element_index);
  const View& v = views_.view(state);
  StateId result;
  if (v.round == 0) {
    result = views_.intern_input(g.map_pid(v.pid), g.map_value(v.input));
  } else {
    std::vector<HeardEntry> heard;
    heard.reserve(v.heard.size());
    for (const HeardEntry& e : v.heard) {
      // Recursion strictly descends in round number, so it terminates; each
      // (g, state) pair relabels once and is thereafter a memo hit.
      heard.push_back(
          {g.map_pid(e.from), relabel_state(element_index, e.state),
           e.last_micro});
    }
    result = views_.intern_round(g.map_pid(v.pid), v.round, std::move(heard));
  }
  g_obs_table_cells.add(
      state_rows_.store(state, element_index, width, result));
  return result;
}

topology::VertexId OrbitContext::relabel_vertex(std::size_t element_index,
                                                topology::VertexId vertex) {
  const std::size_t width = group_.size();
  const topology::VertexId hit =
      vertex_rows_.find(vertex, element_index, width);
  if (hit != RelabelRows<topology::VertexId>::kUnset) return hit;
  const SymmetryElement& g = group_.element(element_index);
  const topology::ProcessId pid = arena_.pid(vertex);
  const StateId state = arena_.state(vertex);
  const topology::VertexId result =
      arena_.intern(g.map_pid(pid), relabel_state(element_index, state));
  g_obs_table_cells.add(
      vertex_rows_.store(vertex, element_index, width, result));
  return result;
}

topology::Simplex OrbitContext::relabel_facet(std::size_t element_index,
                                              const topology::Simplex& facet) {
  std::vector<topology::VertexId> mapped;
  mapped.reserve(facet.size());
  for (const topology::VertexId v : facet.vertices()) {
    mapped.push_back(relabel_vertex(element_index, v));
  }
  return topology::Simplex(std::move(mapped));
}

CanonicalFacet OrbitContext::canonicalize(const topology::Simplex& facet) {
  ++canonicalized_;
  CanonicalFacet best{facet, 1};
  if (group_.size() == 1) return best;
  // Element 0 is the identity: start from the facet itself, then challenge
  // with every non-trivial relabeling. Ties count the stabilizer. Candidates
  // are compared as sorted raw vertex vectors in a reused scratch buffer —
  // a Simplex is only materialized when a candidate actually wins.
  std::vector<topology::VertexId> scratch;
  scratch.reserve(facet.size());
  for (std::size_t gi = 1; gi < group_.size(); ++gi) {
    scratch.clear();
    for (const topology::VertexId v : facet.vertices()) {
      scratch.push_back(relabel_vertex(gi, v));
    }
    std::sort(scratch.begin(), scratch.end());
    if (scratch < best.rep.vertices()) {
      best.rep = topology::Simplex(scratch);
      best.stabilizer = 1;
    } else if (scratch == best.rep.vertices()) {
      ++best.stabilizer;
    }
  }
  return best;
}

}  // namespace psph::core
