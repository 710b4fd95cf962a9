// Orbit-quotient construction (DESIGN §5.16): symmetry groups, canonical
// forms, and the differential guarantee — orbit-reduced facet counts,
// f-vectors, and homology must equal the unreduced pipeline's, value for
// value, for every model and every (n, r) the unreduced path can reach.
// Also covers frontier spill (results bit-identical at any budget, in RAM
// and through sealed on-disk chunks).

#include "core/orbit.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "core/construction.h"
#include "core/pseudosphere.h"
#include "core/theorems.h"
#include "solve/decide.h"
#include "store/frontier.h"
#include "store/fs_ops.h"
#include "store/serialize.h"
#include "topology/homology.h"
#include "util/parallel.h"

namespace {

using namespace psph;

std::uint64_t factorial(int n) {
  std::uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

// ------------------------------------------------------- symmetry groups --

TEST(SymmetryGroupTest, RainbowInputHasFullDiagonalSymmetricGroup) {
  for (int n = 2; n <= 4; ++n) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n, views, arena);
    const core::SymmetryGroup group =
        core::SymmetryGroup::for_input_facet(input, views, arena);
    EXPECT_EQ(group.size(), factorial(n)) << "n=" << n;
    EXPECT_TRUE(group.element(0).is_identity());
  }
}

TEST(SymmetryGroupTest, UniformInputAlsoHasFullSymmetricGroup) {
  // All processes share one input value: every pid permutation works with
  // sigma = id.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::input_facet({7, 7, 7}, views, arena);
  const core::SymmetryGroup group =
      core::SymmetryGroup::for_input_facet(input, views, arena);
  EXPECT_EQ(group.size(), 6u);
}

TEST(SymmetryGroupTest, AsymmetricInputHasPartialGroup) {
  // Inputs {5, 5, 9}: only the swap of the two 5-processes survives.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::input_facet({5, 5, 9}, views, arena);
  const core::SymmetryGroup group =
      core::SymmetryGroup::for_input_facet(input, views, arena);
  EXPECT_EQ(group.size(), 2u);
}

TEST(SymmetryGroupTest, InputComplexGroupActsByAutomorphisms) {
  // psi(3; {0,1}) is symmetric under all pid permutations and the value
  // swap: |G| = 3! * 2! = 12.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::SimplicialComplex inputs =
      core::input_complex(3, {0, 1}, views, arena);
  const core::SymmetryGroup group =
      core::SymmetryGroup::for_input_complex(inputs, views, arena);
  EXPECT_EQ(group.size(), 12u);
  EXPECT_TRUE(group.element(0).is_identity());
}

TEST(SymmetryGroupTest, NonRoundZeroVertexThrows) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex one_round =
      core::async_protocol_complex(input, {3, 1, 1}, views, arena);
  EXPECT_THROW(core::SymmetryGroup::for_input_facet(one_round.facets().front(),
                                                    views, arena),
               std::invalid_argument);
}

// --------------------------------------------------- canonicalization ----

TEST(OrbitContextTest, OrbitMembersShareOneCanonicalForm) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex complex =
      core::async_protocol_complex(input, {3, 1, 1}, views, arena);

  core::OrbitContext ctx(
      core::SymmetryGroup::for_input_facet(input, views, arena), views, arena);
  for (const topology::Simplex& facet : complex.facets()) {
    const core::CanonicalFacet canon = ctx.canonicalize(facet);
    // Every group image of the facet canonicalizes to the same rep, and the
    // stabilizer divides the group order (orbit–stabilizer).
    EXPECT_EQ(ctx.group().size() % canon.stabilizer, 0u);
    for (std::size_t gi = 0; gi < ctx.group().size(); ++gi) {
      const topology::Simplex image = ctx.relabel_facet(gi, facet);
      EXPECT_EQ(ctx.canonicalize(image).rep, canon.rep);
    }
  }
}

TEST(OrbitContextTest, IdentityGroupFixesEverything) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  core::OrbitContext ctx(core::SymmetryGroup::identity(), views, arena);
  const core::CanonicalFacet canon = ctx.canonicalize(input);
  EXPECT_EQ(canon.rep, input);
  EXPECT_EQ(canon.stabilizer, 1u);
}

// --------------------------------------------- differential: 4 models ----

// Values reported by the orbit pipeline (full facet count, full f-vector,
// homology of the reconstituted complex) must equal the unreduced
// pipeline's, and the reconstituted complex must have the same facet count
// as the reduced orbit sum claims.
void expect_orbit_matches_full(const topology::SimplicialComplex& full,
                               const core::OrbitComplexResult& orbit,
                               core::ViewRegistry& views,
                               topology::VertexArena& arena,
                               const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(orbit.full_facet_count, full.facet_count());
  EXPECT_EQ(core::orbit_full_f_vector(orbit, views, arena), full.f_vector());

  const topology::SimplicialComplex rebuilt =
      core::reconstitute_full(orbit, views, arena);
  EXPECT_EQ(rebuilt.facet_count(), full.facet_count());
  EXPECT_EQ(rebuilt.f_vector(), full.f_vector());

  topology::HomologyOptions hopts;
  hopts.max_dim = full.dimension();
  hopts.exact = true;
  const topology::HomologyReport h_full = reduced_homology(full, hopts);
  const topology::HomologyReport h_orbit = reduced_homology(rebuilt, hopts);
  EXPECT_EQ(h_full.reduced_betti, h_orbit.reduced_betti);
  EXPECT_EQ(h_full.torsion, h_orbit.torsion);

  // The reduction is genuine whenever the group is nontrivial: at most one
  // representative per orbit.
  EXPECT_LE(orbit.reduced.facet_count(), full.facet_count());
}

TEST(OrbitDifferentialTest, AsyncMatchesFullPipeline) {
  struct Case {
    int n1, f, r;
  };
  const Case cases[] = {{3, 1, 1}, {3, 1, 2}, {3, 2, 1}, {4, 1, 1}, {4, 2, 1}};
  for (const Case& c : cases) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(c.n1, views, arena);
    const core::AsyncParams params{c.n1, c.f, c.r};
    const topology::SimplicialComplex full =
        core::async_protocol_complex(input, params, views, arena);
    const core::OrbitComplexResult orbit =
        core::async_protocol_complex_orbit(input, params, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "async n1=" + std::to_string(c.n1) +
                                  " f=" + std::to_string(c.f) +
                                  " r=" + std::to_string(c.r));
  }
}

TEST(OrbitDifferentialTest, SyncMatchesFullPipeline) {
  struct Case {
    int n1, f, k, r;
  };
  const Case cases[] = {{3, 1, 1, 1}, {3, 2, 1, 2}, {4, 2, 1, 2}, {4, 2, 2, 1}};
  for (const Case& c : cases) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(c.n1, views, arena);
    const core::SyncParams params{c.n1, c.f, c.k, c.r};
    const topology::SimplicialComplex full =
        core::sync_protocol_complex(input, params, views, arena);
    const core::OrbitComplexResult orbit =
        core::sync_protocol_complex_orbit(input, params, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "sync n1=" + std::to_string(c.n1) +
                                  " f=" + std::to_string(c.f) +
                                  " k=" + std::to_string(c.k) +
                                  " r=" + std::to_string(c.r));
  }
}

TEST(OrbitDifferentialTest, SemiSyncMatchesFullPipeline) {
  struct Case {
    int n1, f, k, mu, r;
  };
  const Case cases[] = {{3, 1, 1, 2, 1}, {3, 2, 1, 2, 2}, {3, 1, 1, 3, 1}};
  for (const Case& c : cases) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(c.n1, views, arena);
    const core::SemiSyncParams params{c.n1, c.f, c.k, c.mu, c.r};
    const topology::SimplicialComplex full =
        core::semisync_protocol_complex(input, params, views, arena);
    const core::OrbitComplexResult orbit =
        core::semisync_protocol_complex_orbit(input, params, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "semisync n1=" + std::to_string(c.n1) +
                                  " f=" + std::to_string(c.f) +
                                  " mu=" + std::to_string(c.mu) +
                                  " r=" + std::to_string(c.r));
  }
}

TEST(OrbitDifferentialTest, IisMatchesFullPipeline) {
  for (int r = 1; r <= 2; ++r) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(3, views, arena);
    const topology::SimplicialComplex full =
        core::iis_protocol_complex(input, r, views, arena);
    const core::OrbitComplexResult orbit =
        core::iis_protocol_complex_orbit(input, r, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "iis r=" + std::to_string(r));
  }
}

TEST(OrbitDifferentialTest, InputComplexOverloadMatchesFullPipeline) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::SimplicialComplex inputs =
      core::input_complex(3, {0, 1}, views, arena);
  const core::AsyncParams params{3, 1, 1};
  const topology::SimplicialComplex full =
      core::async_protocol_complex_over(inputs, params, views, arena);
  const core::OrbitComplexResult orbit =
      core::async_protocol_complex_orbit_over(inputs, params, views, arena);
  expect_orbit_matches_full(full, orbit, views, arena, "async over psi(3)");
}

TEST(OrbitDifferentialTest, AsymmetricInputDegeneratesGracefully) {
  // With a near-trivial group (|G| = 2) the orbit pipeline still reproduces
  // the full pipeline's values.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::input_facet({5, 5, 9}, views, arena);
  const core::AsyncParams params{3, 1, 1};
  const topology::SimplicialComplex full =
      core::async_protocol_complex(input, params, views, arena);
  const core::OrbitComplexResult orbit =
      core::async_protocol_complex_orbit(input, params, views, arena);
  expect_orbit_matches_full(full, orbit, views, arena, "async {5,5,9}");
}

// ----------------------------------------------------- frontier spill ----

TEST(FrontierSpillTest, TinyBudgetIsBitIdenticalInFullMode) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const core::AsyncParams params{3, 1, 2};

  const topology::SimplicialComplex in_ram =
      core::async_protocol_complex(input, params, views, arena);

  // A 64-byte budget forces a flush roughly every other item; the in-memory
  // chunk store exercises the encode/chunk/drain path exactly.
  core::InMemoryFrontierStorage chunks;
  core::ConstructionOptions options;
  options.frontier_budget_bytes = 64;
  options.storage = &chunks;
  const topology::SimplicialComplex spilled =
      core::async_protocol_complex(input, params, views, arena, options);

  EXPECT_EQ(in_ram, spilled);
  EXPECT_EQ(chunks.chunk_count(), 0u);  // every level fully drained
}

TEST(FrontierSpillTest, DiskSpoolIsBitIdenticalAcrossModels) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "psph_orbit_test_spool";
  store::FrontierSpool spool(store::FsOps::real(), dir);

  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);

  core::ConstructionOptions options;
  options.frontier_budget_bytes = 48;
  options.storage = &spool;

  {
    const core::SyncParams params{3, 2, 1, 2};
    EXPECT_EQ(core::sync_protocol_complex(input, params, views, arena),
              core::sync_protocol_complex(input, params, views, arena,
                                          options));
  }
  {
    const core::SemiSyncParams params{3, 1, 1, 2, 2};
    EXPECT_EQ(core::semisync_protocol_complex(input, params, views, arena),
              core::semisync_protocol_complex(input, params, views, arena,
                                              options));
  }
  EXPECT_GT(spool.stats().chunks_written, 0u);
  EXPECT_EQ(spool.stats().chunks_read, spool.stats().chunks_written);
  std::filesystem::remove_all(dir);
}

TEST(FrontierSpillTest, OrbitModeWithSpillMatchesOrbitModeInRam) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(4, views, arena);
  const core::AsyncParams params{4, 1, 2};

  const core::OrbitComplexResult in_ram =
      core::async_protocol_complex_orbit(input, params, views, arena);

  core::ConstructionOptions options;
  options.frontier_budget_bytes = 128;
  const core::OrbitComplexResult spilled = core::async_protocol_complex_orbit(
      input, params, views, arena, options);

  EXPECT_EQ(in_ram.reduced, spilled.reduced);
  EXPECT_EQ(in_ram.full_facet_count, spilled.full_facet_count);
  ASSERT_EQ(in_ram.orbits.size(), spilled.orbits.size());
  for (std::size_t i = 0; i < in_ram.orbits.size(); ++i) {
    EXPECT_EQ(in_ram.orbits[i].rep, spilled.orbits[i].rep);
    EXPECT_EQ(in_ram.orbits[i].stabilizer, spilled.orbits[i].stabilizer);
    EXPECT_EQ(in_ram.orbits[i].dominated, spilled.orbits[i].dominated);
  }
}

TEST(FrontierSpillTest, CorruptSpilledChunkFailsLoudly) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "psph_orbit_test_corrupt";
  store::FrontierSpool spool(store::FsOps::real(), dir);
  spool.append_chunk({1, 2, 3, 4});

  // Flip one payload byte on disk; the sealed envelope's checksum must
  // catch it on read.
  const std::filesystem::path chunk = dir / "chunk-000000.psph";
  auto fs = store::FsOps::real();
  std::vector<std::uint8_t> bytes = *fs->read_file(chunk);
  bytes[bytes.size() / 2] ^= 0x40;
  fs->write_file(chunk, bytes.data(), bytes.size());

  EXPECT_THROW(spool.read_chunk(0), store::SerializationError);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- golden construction digests ----

// Digests of everything a construction change must not move: the view
// registry and vertex arena in id order (interning order), the facet slot
// order for_each_facet walks (compile_csp's facet ids), the orbit records,
// and a compiled CSP's facet list. The pinned values were computed before
// the orbit relabel tables moved to rows and CONSUME became one bulk adopt,
// and each is checked at 1 and 4 threads.

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xff;
      state_ *= 0x100000001b3ull;
    }
  }
  void add(const std::string& text) {
    add(text.size());
    for (const char c : text) add(static_cast<std::uint64_t>(c));
  }
  void add(const std::vector<topology::VertexId>& vertices) {
    add(vertices.size());
    for (const topology::VertexId v : vertices) add(v);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

std::uint64_t registry_digest(const core::ViewRegistry& views,
                              const topology::VertexArena& arena) {
  Digest d;
  d.add(views.size());
  for (topology::StateId id = 0; id < views.size(); ++id) {
    d.add(views.to_string(id));
  }
  d.add(arena.size());
  for (topology::VertexId id = 0; id < arena.size(); ++id) {
    d.add(static_cast<std::uint64_t>(arena.pid(id)));
    d.add(arena.state(id));
  }
  return d.value();
}

std::uint64_t slot_order_digest(const topology::SimplicialComplex& k) {
  Digest d;
  d.add(k.facet_count());
  k.for_each_facet(
      [&](const topology::Simplex& facet) { d.add(facet.vertices()); });
  return d.value();
}

std::uint64_t orbit_digest(const core::OrbitComplexResult& result) {
  Digest d;
  d.add(result.orbits.size());
  for (const core::OrbitRecord& rec : result.orbits) {
    d.add(rec.rep.vertices());
    d.add(rec.stabilizer);
    d.add(rec.dominated ? 1 : 0);
  }
  d.add(result.full_facet_count);
  d.add(slot_order_digest(result.reduced));
  return d.value();
}

/// Runs `body` at 1 and 4 threads, restoring the caller's count.
template <typename Body>
void at_one_and_four_threads(const Body& body) {
  const int previous = util::thread_count();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::set_thread_count(threads);
    body();
  }
  util::set_thread_count(previous);
}

struct FullDigest {
  std::uint64_t registry;
  std::uint64_t slots;
};

template <typename Build>
FullDigest full_digest(int participants, const Build& build) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input =
      core::rainbow_input(participants, views, arena);
  const topology::SimplicialComplex k = build(input, views, arena);
  return {registry_digest(views, arena), slot_order_digest(k)};
}

TEST(GoldenDigestTest, FullBuildsKeepIdsAndSlotOrder) {
  at_one_and_four_threads([] {
    const FullDigest async = full_digest(
        3, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::async_protocol_complex(input, {3, 1, 2}, views, arena);
        });
    EXPECT_EQ(async.registry, 7981914820995775589u);
    EXPECT_EQ(async.slots, 18343472888684747362u);
    const FullDigest sync = full_digest(
        4, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::sync_protocol_complex(input, {4, 2, 1, 2}, views,
                                             arena);
        });
    EXPECT_EQ(sync.registry, 10899275503564295269u);
    EXPECT_EQ(sync.slots, 10789335970218037669u);
    const FullDigest semisync = full_digest(
        3, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::semisync_protocol_complex(input, {3, 2, 1, 2, 2}, views,
                                                 arena);
        });
    EXPECT_EQ(semisync.registry, 2510375927883217556u);
    EXPECT_EQ(semisync.slots, 13427416147920618702u);
    const FullDigest iis = full_digest(
        3, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::iis_protocol_complex(input, 2, views, arena);
        });
    EXPECT_EQ(iis.registry, 2840830626158325467u);
    EXPECT_EQ(iis.slots, 6448914446938277605u);
  });
}

struct OrbitDigest {
  std::uint64_t orbits;
  std::uint64_t registry;
  /// The full f-vector, the reconstituted complex's slot order and the
  /// registry after both.
  std::uint64_t reconstituted;
};

template <typename Build>
OrbitDigest orbit_build_digest(int participants, const Build& build) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input =
      core::rainbow_input(participants, views, arena);
  const core::OrbitComplexResult result = build(input, views, arena);
  OrbitDigest out{orbit_digest(result), registry_digest(views, arena), 0};
  Digest d;
  for (const std::size_t count :
       core::orbit_full_f_vector(result, views, arena)) {
    d.add(count);
  }
  d.add(slot_order_digest(core::reconstitute_full(result, views, arena)));
  d.add(registry_digest(views, arena));
  out.reconstituted = d.value();
  return out;
}

TEST(GoldenDigestTest, OrbitBuildsKeepRepsStabilizersAndIds) {
  at_one_and_four_threads([] {
    const OrbitDigest async = orbit_build_digest(
        4, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::async_protocol_complex_orbit(input, {4, 1, 1}, views,
                                                    arena);
        });
    EXPECT_EQ(async.orbits, 6422606302969521843u);
    EXPECT_EQ(async.registry, 1162724637289214821u);
    EXPECT_EQ(async.reconstituted, 6787654437375912173u);
    const OrbitDigest sync = orbit_build_digest(
        4, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::sync_protocol_complex_orbit(input, {4, 2, 1, 2}, views,
                                                   arena);
        });
    EXPECT_EQ(sync.orbits, 6830125717145203910u);
    EXPECT_EQ(sync.registry, 14547796142027967589u);
    EXPECT_EQ(sync.reconstituted, 7986320065542475187u);
    // The perfbench semisync instance one size down: total failures
    // rounds * k, as the serving layer sets them.
    const OrbitDigest semisync = orbit_build_digest(
        4, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::semisync_protocol_complex_orbit(input, {4, 2, 1, 2, 2},
                                                       views, arena);
        });
    EXPECT_EQ(semisync.orbits, 3151964354957533239u);
    EXPECT_EQ(semisync.registry, 1032183797552778669u);
    EXPECT_EQ(semisync.reconstituted, 11942690916288389491u);
    const OrbitDigest iis = orbit_build_digest(
        3, [](const topology::Simplex& input, core::ViewRegistry& views,
              topology::VertexArena& arena) {
          return core::iis_protocol_complex_orbit(input, 2, views, arena);
        });
    EXPECT_EQ(iis.orbits, 3326006253789827539u);
    EXPECT_EQ(iis.registry, 3030255485613936699u);
    EXPECT_EQ(iis.reconstituted, 11751674556256462730u);
  });
}

TEST(GoldenDigestTest, CompiledCspFacetListIsPinned) {
  at_one_and_four_threads([] {
    // sync n+1 = 3, f = 1, k = 1, r = 2: a non-pure final level.
    const std::unique_ptr<solve::Instance> instance =
        solve::build_instance({solve::Model::kSync, 3, 1, 1, 0, 2});
    const solve::CspProblem& problem = instance->problem;
    Digest facets;
    facets.add(problem.facets.size());
    for (const std::vector<int>& facet : problem.facets) {
      facets.add(facet.size());
      for (const int v : facet) facets.add(static_cast<std::uint64_t>(v));
    }
    Digest vertices;
    vertices.add(problem.vertex_ids);
    EXPECT_EQ(facets.value(), 16468171008751976777u);
    EXPECT_EQ(vertices.value(), 11491990937866369413u);
    EXPECT_EQ(problem.group_order(), 12u);
  });
}

}  // namespace
