#include "cold_mix.h"

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/async_complex.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/random.h"

namespace perfbench {

using psph::serve::Json;

namespace {

// The hot mix: psph_loadgen's 12 shapes with its weights (sum 100). It is
// a copy on purpose: a benchmark's workload must stay fixed while the
// program changes, so a later edit of psph_loadgen's pool does not change
// what serve_hot measures.
struct Shape {
  const char* json;
  int weight;
};
constexpr Shape kHotShapes[] = {
    {R"({"kind":"connectivity","model":"async","processes":3,"f":1})", 14},
    {R"({"kind":"connectivity","model":"async","processes":4,"f":1})", 8},
    {R"({"kind":"connectivity","model":"sync","processes":3,"k":1})", 10},
    {R"({"kind":"connectivity","model":"semisync","processes":3,"k":1,"mu":2})", 8},
    {R"({"kind":"connectivity","model":"pseudosphere","sizes":[2,2,2]})", 10},
    {R"({"kind":"connectivity","model":"pseudosphere","sizes":[3,2,3]})", 5},
    {R"({"kind":"complex_stats","model":"async","processes":3,"f":1,"rounds":2})", 10},
    {R"({"kind":"complex_stats","model":"sync","processes":4,"k":1})", 8},
    {R"({"kind":"homology","model":"async","processes":3,"f":1,"max_dim":2})", 8},
    {R"({"kind":"homology","model":"pseudosphere","sizes":[2,2,2,2],"max_dim":2})", 7},
    {R"({"kind":"decide","model":"async","processes":3,"f":1,"k":1})", 7},
    {R"({"kind":"decide","model":"sync","processes":3,"f":1,"k":1,"rounds":2})", 5},
};

std::string object_text(
    const std::vector<std::pair<std::string, Json>>& fields) {
  Json object = Json::object();
  for (const auto& [key, value] : fields) object.set(key, value);
  return object.dump();
}

Json integer(int value) { return Json::integer(value); }

// Homology variants per complex: (max_dim, exact).
constexpr std::pair<int, bool> kHomologyVariants[] = {
    {0, false}, {1, true}, {2, false}, {2, true}, {3, false}, {4, false}};

// Timing-model parameter points for the complex-building kinds. The bounds
// keep every point of the pool under about 0.3 s cold on one core of a
// 4-CPU x86 host, so no single query dominates the closed loop's tail;
// they were found by timing every candidate once (compute_sealed, no
// store) and are fixed here so the pool never depends on the machine it
// runs on.
// Async points are bounded by their Lemma 11 facet count.
struct ModelPoint {
  std::string model;
  int processes = 0;
  int participants = 0;
  int f = 0;
  int k = 0;
  int mu = 0;
  int rounds = 0;
};

std::vector<std::pair<std::string, Json>> model_fields(const ModelPoint& p) {
  std::vector<std::pair<std::string, Json>> fields = {
      {"model", Json::string(p.model)},
      {"processes", integer(p.processes)},
      {"participants", integer(p.participants)},
      {"rounds", integer(p.rounds)},
  };
  if (p.model == "async") fields.push_back({"f", integer(p.f)});
  if (p.model != "async") fields.push_back({"k", integer(p.k)});
  if (p.model == "semisync") fields.push_back({"mu", integer(p.mu)});
  return fields;
}

std::vector<ModelPoint> model_points() {
  std::vector<ModelPoint> out;
  for (int p = 2; p <= 5; ++p) {
    for (int m1 = 2; m1 <= p; ++m1) {
      for (int f = 0; f < p; ++f) {
        const double per_round = static_cast<double>(
            psph::core::async_round_facet_count(m1, p, f));
        double facets = 1.0;
        for (int r = 1; r <= 3; ++r) {
          facets *= per_round;
          if (facets <= 8000.0) out.push_back({"async", p, m1, f, 0, 0, r});
        }
      }
    }
  }
  for (int p = 2; p <= 6; ++p) {
    for (int m1 = 2; m1 <= p; ++m1) {
      for (int r = 1; r <= (p >= 5 ? 2 : 3); ++r) {
        for (int k = 1; (r + 1) * k <= p; ++k) {
          if (p == 6 && (r > 1 || k > 1)) continue;
          out.push_back({"sync", p, m1, 0, k, 0, r});
        }
      }
    }
  }
  for (int p = 2; p <= 5; ++p) {
    for (int m1 = 2; m1 <= p; ++m1) {
      for (int r = 1; r <= (p == 5 ? 2 : 3); ++r) {
        for (int k = 1; (r + 1) * k <= p; ++k) {
          const int max_mu = (r == 1 && p < 5) ? 4 : 2;
          for (int mu = 1; mu <= max_mu; ++mu) {
            out.push_back({"semisync", p, m1, 0, k, mu, r});
          }
        }
      }
    }
  }
  return out;
}

// Every value-set size vector of 2..5 positions with at least 8 facets;
// entries go up to 4 on up to 4 positions and up to 3 on 5.
std::vector<std::vector<int>> pseudosphere_sizes() {
  std::vector<std::vector<int>> out;
  for (int len = 2; len <= 5; ++len) {
    const int top = len == 5 ? 3 : 4;
    std::vector<int> sizes(static_cast<std::size_t>(len), 1);
    while (true) {
      int facets = 1;
      for (const int s : sizes) facets *= s;
      if (facets >= 8) out.push_back(sizes);
      int i = len - 1;
      while (i >= 0 && sizes[static_cast<std::size_t>(i)] == top) {
        sizes[static_cast<std::size_t>(i)] = 1;
        --i;
      }
      if (i < 0) break;
      ++sizes[static_cast<std::size_t>(i)];
    }
  }
  return out;
}

Json sizes_json(const std::vector<int>& sizes) {
  Json array = Json::array();
  for (const int s : sizes) array.push(integer(s));
  return array;
}

void add(std::map<std::string, Family>& families, const std::string& kind,
         const std::string& model, const std::string& construction,
         std::string request) {
  const std::string name = kind + "/" + model + "/" + construction;
  Family& family = families[name];
  family.name = name;
  family.kind = kind;
  family.model = model;
  family.points.push_back(std::move(request));
}

}  // namespace

std::vector<HotShape> hot_shapes() {
  std::vector<HotShape> out;
  for (const Shape& shape : kHotShapes) out.push_back({shape.json, shape.weight});
  return out;
}

std::vector<int> hot_stream(std::uint64_t seed, std::size_t length) {
  psph::util::Rng rng(seed);
  std::vector<int> out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    std::uint64_t pick = rng.next_below(100);
    int chosen = 0;
    for (std::size_t s = 0; s < std::size(kHotShapes); ++s) {
      if (pick < static_cast<std::uint64_t>(kHotShapes[s].weight)) {
        chosen = static_cast<int>(s);
        break;
      }
      pick -= static_cast<std::uint64_t>(kHotShapes[s].weight);
    }
    out.push_back(chosen);
  }
  return out;
}

std::vector<Family> cold_families() {
  std::map<std::string, Family> families;
  const Json kind_conn = Json::string("connectivity");
  for (const ModelPoint& p : model_points()) {
    auto fields = model_fields(p);
    fields.insert(fields.begin(), {"kind", kind_conn});
    add(families, "connectivity", p.model, "full", object_text(fields));
  }
  for (const std::string construction : {"full", "orbit"}) {
    for (const ModelPoint& p : model_points()) {
      auto fields = model_fields(p);
      fields.insert(fields.begin(), {"kind", Json::string("complex_stats")});
      fields.push_back({"construction", Json::string(construction)});
      add(families, "complex_stats", p.model, construction,
          object_text(fields));
    }
    for (const ModelPoint& p : model_points()) {
      for (const auto& [max_dim, exact] : kHomologyVariants) {
        // Exact SNF past one round takes seconds to minutes.
        if (exact && p.rounds > 1) continue;
        {
          auto fields = model_fields(p);
          fields.insert(fields.begin(), {"kind", Json::string("homology")});
          fields.push_back({"construction", Json::string(construction)});
          fields.push_back({"max_dim", integer(max_dim)});
          fields.push_back({"exact", Json::boolean(exact)});
          add(families, "homology", p.model, construction,
              object_text(fields));
        }
      }
    }
  }
  for (const std::vector<int>& sizes : pseudosphere_sizes()) {
    add(families, "connectivity", "pseudosphere", "full",
        object_text({{"kind", kind_conn},
                     {"model", Json::string("pseudosphere")},
                     {"sizes", sizes_json(sizes)}}));
    add(families, "complex_stats", "pseudosphere", "full",
        object_text({{"kind", Json::string("complex_stats")},
                     {"model", Json::string("pseudosphere")},
                     {"sizes", sizes_json(sizes)}}));
    for (const auto& [max_dim, exact] : kHomologyVariants) {
      add(families, "homology", "pseudosphere", "full",
          object_text({{"kind", Json::string("homology")},
                       {"model", Json::string("pseudosphere")},
                       {"sizes", sizes_json(sizes)},
                       {"max_dim", integer(max_dim)},
                       {"exact", Json::boolean(exact)}}));
    }
  }
  // decide: every model, small instances only (the big ones belong to
  // batch_large). Larger k or more rounds make the value domain and the
  // complex grow past the pool's per-point budget.
  const auto decide = [&](const std::string& model, int p, int f, int k,
                          int mu, int r) {
    std::vector<std::pair<std::string, Json>> fields = {
        {"kind", Json::string("decide")},
        {"model", Json::string(model)},
        {"processes", integer(p)},
        {"k", integer(k)},
        {"rounds", integer(r)}};
    if (model != "iis") fields.push_back({"f", integer(f)});
    if (model == "semisync") fields.push_back({"mu", integer(mu)});
    add(families, "decide", model, "full", object_text(fields));
  };
  for (int p = 2; p <= 3; ++p) {
    for (int f = 0; f < p; ++f) {
      for (int k = 1; k <= p; ++k) {
        for (int r = 1; r <= 2; ++r) {
          if (r == 1 || (k == 1 && f <= 1)) decide("async", p, f, k, 0, r);
          decide("sync", p, f, k, 0, r);
          if (r == 1) {
            for (int mu = 1; mu <= 2; ++mu) decide("semisync", p, f, k, mu, 1);
          }
          if (f == 0 && (r == 1 || p == 2)) decide("iis", p, 0, k, 0, r);
        }
      }
    }
  }

  // Normalization can fold points together (e.g. participants is ignored by
  // decide); keep the first of each normalized key, pool-wide.
  std::set<std::string> seen;
  std::vector<Family> out;
  for (auto& [name, family] : families) {
    Family kept = family;
    kept.points.clear();
    for (std::string& text : family.points) {
      const psph::serve::ParsedRequest parsed =
          psph::serve::parse_request(Json::parse(text));
      if (!parsed.query.has_value()) {
        throw std::logic_error("cold pool point rejected: " + text + ": " +
                               parsed.error->message);
      }
      if (seen.insert(psph::serve::cache_key(*parsed.query).key().hex())
              .second) {
        kept.points.push_back(std::move(text));
      }
    }
    if (!kept.points.empty()) out.push_back(std::move(kept));
  }
  return out;
}

std::vector<std::string> cold_stream(const std::vector<Family>& families,
                                     std::uint64_t seed) {
  psph::util::Rng rng(seed);
  std::vector<std::vector<std::string>> shuffled;
  std::size_t total = 0;
  for (const Family& family : families) {
    std::vector<std::string> points = family.points;
    for (std::size_t i = points.size(); i > 1; --i) {
      std::swap(points[i - 1], points[rng.next_below(i)]);
    }
    total += points.size();
    shuffled.push_back(std::move(points));
  }
  // Proportional interleave: every prefix of the stream holds each family
  // in proportion to its pool share, so a run that stops early still sees
  // the whole mix and the per-seed cost of a prefix varies little.
  std::vector<std::size_t> taken(shuffled.size(), 0);
  std::vector<std::string> out;
  out.reserve(total);
  while (out.size() < total) {
    std::size_t best = shuffled.size();
    double best_share = 2.0;
    for (std::size_t f = 0; f < shuffled.size(); ++f) {
      if (taken[f] == shuffled[f].size()) continue;
      const double share = (static_cast<double>(taken[f]) + 0.5) /
                           static_cast<double>(shuffled[f].size());
      if (share < best_share) {
        best_share = share;
        best = f;
      }
    }
    out.push_back(shuffled[best][taken[best]++]);
  }
  return out;
}

}  // namespace perfbench
