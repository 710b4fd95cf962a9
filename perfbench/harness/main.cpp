// psph_perfbench — the harness behind perfbench/run.py.
//
//   psph_perfbench mix --seed=1          # serve query-mix report
//   psph_perfbench serve --seed=1 ...    # one serve_hot run
//   psph_perfbench batch --seed=1 ...    # one batch_large battery
//
// Each measuring subcommand prints one JSON object as its last stdout line;
// run.py turns those into the benchmark's metrics.

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cold_mix.h"
#include "harness.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/cli.h"

namespace {

using namespace perfbench;
using psph::serve::Json;

/// Hot requests drawn for the repeat-share report.
constexpr std::size_t kHotReportLength = 40000;

std::string normalized_key(const std::string& text) {
  const psph::serve::ParsedRequest parsed =
      psph::serve::parse_request(Json::parse(text));
  return psph::serve::cache_key(*parsed.query).key().hex();
}

/// Repeat share of a request stream: the fraction of requests whose
/// normalized key appeared earlier in the stream.
double repeat_share(const std::vector<std::string>& stream) {
  std::set<std::string> seen;
  std::size_t repeats = 0;
  for (const std::string& text : stream) {
    if (!seen.insert(normalized_key(text)).second) ++repeats;
  }
  return stream.empty() ? 0.0
                        : static_cast<double>(repeats) /
                              static_cast<double>(stream.size());
}

int run_mix(int argc, char** argv) {
  std::int64_t seed = 1;
  psph::util::Cli cli("psph_perfbench mix",
                      "report the serve workloads' query mixes");
  cli.flag("seed", &seed, "stream seed");
  cli.parse(argc, argv);

  const std::vector<Family> families = cold_families();
  const std::vector<std::string> cold =
      cold_stream(families, static_cast<std::uint64_t>(seed));
  std::map<std::string, std::size_t> by_kind;
  std::map<std::string, std::size_t> by_model;
  std::map<std::string, std::size_t> by_construction;
  for (const Family& family : families) {
    by_kind[family.kind] += family.points.size();
    by_model[family.model] += family.points.size();
    by_construction[family.name.substr(family.name.rfind('/') + 1)] +=
        family.points.size();
  }
  const auto shares = [&](const std::map<std::string, std::size_t>& counts) {
    Json out = Json::object();
    for (const auto& [name, count] : counts) {
      out.set(name, Json::number(static_cast<double>(count) /
                                 static_cast<double>(cold.size())));
    }
    return out;
  };
  Json families_json = Json::object();
  for (const Family& family : families) {
    families_json.set(family.name, Json::integer(static_cast<std::int64_t>(
                                       family.points.size())));
  }

  std::vector<std::string> hot;
  const std::vector<HotShape> shapes = hot_shapes();
  for (const int shape :
       hot_stream(static_cast<std::uint64_t>(seed), kHotReportLength)) {
    hot.push_back(shapes[static_cast<std::size_t>(shape)].json);
  }

  const double cold_repeat = repeat_share(cold);
  Json report = Json::object();
  report.set("seed", Json::integer(seed));
  report.set("pool_size",
             Json::integer(static_cast<std::int64_t>(cold.size())));
  report.set("families", std::move(families_json));
  report.set("kind_share", shares(by_kind));
  report.set("model_share", shares(by_model));
  report.set("construction_share", shares(by_construction));
  report.set("serve_cold_repeat_share", Json::number(cold_repeat));
  report.set("serve_hot_repeat_share", Json::number(repeat_share(hot)));
  std::printf("%s\n", report.dump().c_str());
  if (cold_repeat != 0.0) {
    std::fprintf(stderr, "cold pool repeats a normalized key\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: psph_perfbench mix|serve|batch [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "mix") return run_mix(argc - 1, argv + 1);
    if (command == "serve") return perfbench::run_serve(argc - 1, argv + 1);
    if (command == "batch") return perfbench::run_batch(argc - 1, argv + 1);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psph_perfbench %s: %s\n", command.c_str(),
                 error.what());
    return 1;
  }
  std::fprintf(stderr, "psph_perfbench: unknown command '%s'\n",
               command.c_str());
  return 2;
}
