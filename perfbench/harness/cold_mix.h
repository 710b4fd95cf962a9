#pragma once

// Query streams for the serve workloads.
//
// serve_hot replays psph_loadgen's 12-shape weighted mix, so nearly every
// request repeats a normalized key the store already holds. The cold
// stream (the serve_cold workload's, which the benchmark does not run yet;
// `psph_perfbench mix` reports it) draws from a fixed pool of parameter
// points grouped into families (kind/model/construction); no two points
// share a normalized key (`cache_key(parse_request(..))`), so every request
// would miss and write.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct HotShape {
  std::string json;
  int weight = 0;
};

/// The 12 hot shapes with their weights (sum 100).
std::vector<HotShape> hot_shapes();

/// `length` seeded weighted draws of hot shape indices.
std::vector<int> hot_stream(std::uint64_t seed, std::size_t length);

struct Family {
  std::string name;  // kind/model/construction
  std::string kind;
  std::string model;
  std::vector<std::string> points;  // request JSON texts, no id
};

/// The fixed cold pool, deduplicated by normalized cache key pool-wide.
std::vector<Family> cold_families();

/// The whole pool as one seeded stream: each family shuffled, then
/// interleaved so every prefix holds each family in proportion to its pool
/// share.
std::vector<std::string> cold_stream(const std::vector<Family>& families,
                                     std::uint64_t seed);

}  // namespace perfbench
