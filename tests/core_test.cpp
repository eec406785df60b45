// Tests for the Canopus core: delta calculation / restoration (Algorithms 2
// and 3), the refactor-and-write pipeline, tiered placement, and the
// progressive reader.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "core/canopus.hpp"
#include "mesh/cascade.hpp"
#include "mesh/generators.hpp"
#include "mesh/point_locator.hpp"
#include "mesh/validate.hpp"
#include "sim/datasets.hpp"
#include "storage/hierarchy.hpp"
#include "util/simd.hpp"
#include "util/stats.hpp"
#include "test_support.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ca = canopus::adios;
namespace cu = canopus::util;
namespace ct = canopus::test;

namespace {

cm::Field smooth_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

cs::StorageHierarchy big_two_tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(256 << 20), cs::lustre_spec(1 << 30)});
}

}  // namespace

// ------------------------------------------------------- delta / restore --

class DeltaRestore : public ::testing::TestWithParam<cc::EstimateMode> {};

TEST_P(DeltaRestore, ExactInverseWithLosslessDeltas) {
  // restore(compute_delta(...)) must reproduce the fine level bit-exactly
  // when deltas are not further compressed — the core Canopus invariant.
  const auto fine_mesh = cm::make_annulus_mesh(10, 60, 0.5, 1.0, 0.15, 3);
  const auto fine_values = smooth_field(fine_mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(fine_mesh, fine_values, opt);

  const auto mapping = cc::build_mapping(fine_mesh, coarse.mesh);
  const auto delta = cc::compute_delta(coarse.mesh, coarse.values, fine_values,
                                       mapping, GetParam());
  const auto restored = cc::restore_level(coarse.mesh, coarse.values, delta,
                                          mapping, GetParam());
  ASSERT_EQ(restored.size(), fine_values.size());
  for (std::size_t i = 0; i < restored.size(); ++i) {
    EXPECT_DOUBLE_EQ(restored[i], fine_values[i]) << "vertex " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimateModes, DeltaRestore,
                         ::testing::Values(cc::EstimateMode::kUniformThirds,
                                           cc::EstimateMode::kBarycentric,
                                           cc::EstimateMode::kNearestVertex),
                         [](const auto& p) { return cc::to_string(p.param); });

TEST(Delta, DeltasAreSmootherThanLevels) {
  // The Fig. 4/5 premise: the delta stream is less variable than the level
  // data it reconstructs, so it compresses better.
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, values, opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  const auto delta = cc::compute_delta(coarse.mesh, coarse.values, values,
                                       mapping, cc::EstimateMode::kBarycentric);
  cu::RunningStats level_stats, delta_stats;
  level_stats.add(values);
  delta_stats.add(delta);
  EXPECT_LT(delta_stats.stddev(), level_stats.stddev());
}

TEST(Delta, BarycentricBeatsUniformOnLinearField) {
  // A linear field is predicted exactly by barycentric interpolation, so its
  // deltas vanish; uniform 1/3 weights leave residuals.
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.2, 5);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 4.0 * p.x - 7.0 * p.y;
  }
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, f, opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  const auto d_bary = cc::compute_delta(coarse.mesh, coarse.values, f, mapping,
                                        cc::EstimateMode::kBarycentric);
  const auto d_unif = cc::compute_delta(coarse.mesh, coarse.values, f, mapping,
                                        cc::EstimateMode::kUniformThirds);
  cu::RunningStats bary, unif;
  for (double x : d_bary) bary.add(std::abs(x));
  for (double x : d_unif) unif.add(std::abs(x));
  EXPECT_LT(bary.mean(), unif.mean());
}

TEST(Delta, MappingSerializationRoundTrip) {
  const auto mesh = cm::make_disk_mesh(8, 40, 1.0, 0.1, 11);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(mesh, smooth_field(mesh), opt);
  const auto mapping = cc::build_mapping(mesh, coarse.mesh);
  cu::ByteWriter w;
  mapping.serialize(w);
  cu::ByteReader r(w.view());
  const auto copy = cc::VertexMapping::deserialize(r);
  ASSERT_EQ(copy.size(), mapping.size());
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    EXPECT_EQ(copy.triangle[i], mapping.triangle[i]);
    for (int k = 0; k < 3; ++k) {
      EXPECT_NEAR(copy.weights[i][k], mapping.weights[i][k], 1e-12);
    }
  }
}

TEST(Delta, EstimateModeStringsRoundTrip) {
  for (auto mode : {cc::EstimateMode::kUniformThirds,
                    cc::EstimateMode::kBarycentric,
                    cc::EstimateMode::kNearestVertex}) {
    EXPECT_EQ(cc::estimate_mode_from_string(cc::to_string(mode)), mode);
  }
  EXPECT_THROW(cc::estimate_mode_from_string("cubic"), canopus::Error);
}

// ------------------------------------------------------------- refactorer --

TEST(Refactorer, WritesAllProductsAndLevels) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  const auto report = ct::write_field(tiers, "xgc.bp", "dpot", mesh,
                                      smooth_field(mesh), config);
  // base + 2 deltas.
  ASSERT_EQ(report.products.size(), 3u);
  EXPECT_EQ(report.products[0].name, "base");
  EXPECT_EQ(report.level_vertices.size(), 3u);
  EXPECT_GT(report.phases.get("decimation"), 0.0);
  EXPECT_GT(report.phases.get("io"), 0.0);
  EXPECT_LT(report.total_stored_bytes(), report.total_raw_bytes());

  ca::BpReader reader(tiers, "xgc.bp");
  const auto info = reader.inq_var("dpot");
  EXPECT_NE(info.block(ca::BlockKind::kBase, 2), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kDelta, 0), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kDelta, 1), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kMesh, 0), nullptr);
  EXPECT_NE(info.block(ca::BlockKind::kMapping, 1), nullptr);
  EXPECT_EQ(reader.attribute("codec"), std::optional<std::string>("zfp"));
}

TEST(Refactorer, TieredPlacementFollowsFig1) {
  // 3 levels over 3 tiers: base -> tier 0, delta1 -> tier 1, delta0 -> tier 2.
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64 << 20),
                              cs::ssd_spec(128 << 20),
                              cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.1, 13);
  cc::RefactorConfig config;
  config.levels = 3;
  const auto report = ct::write_field(tiers, "r.bp", "v", mesh,
                                      smooth_field(mesh), config);
  for (const auto& p : report.products) {
    if (p.name == "base") {
      EXPECT_EQ(p.tier, 0u);
    } else if (p.name == "delta1") {
      EXPECT_EQ(p.tier, 1u);
    } else if (p.name == "delta0") {
      EXPECT_EQ(p.tier, 2u);
    }
  }
}

TEST(Refactorer, ChunkTiersReportEveryChunkAndSlowestTier) {
  // Round-robin placement scatters a chunked delta across tiers; the product
  // must list every chunk's tier (matching the container index) and report
  // the slowest of them — not whichever tier the last chunk happened to get.
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64 << 20), cs::ssd_spec(64 << 20),
                              cs::lustre_spec(1 << 30)},
                             cs::PlacementPolicy::kRoundRobin);
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.1, 13);
  cc::RefactorConfig config;
  config.levels = 2;
  config.delta_chunks = 4;
  config.tiered_placement = false;  // let the round-robin policy place
  const auto report = ct::write_field(tiers, "rr.bp", "v", mesh,
                                      smooth_field(mesh), config);

  ca::BpReader reader(tiers, "rr.bp");
  const auto info = reader.inq_var("v");
  for (const auto& p : report.products) {
    ASSERT_FALSE(p.chunk_tiers.empty()) << p.name;
    std::uint32_t slowest = 0;
    for (std::uint32_t t : p.chunk_tiers) slowest = std::max(slowest, t);
    EXPECT_EQ(p.tier, slowest) << p.name;
    if (p.name != "base") {
      ASSERT_EQ(p.chunk_tiers.size(), 4u);
      // Ground truth: the per-chunk tiers recorded in the container index.
      for (const auto& b : info.blocks) {
        if (b.kind == ca::BlockKind::kDelta && b.level == p.level) {
          EXPECT_EQ(p.chunk_tiers[b.chunk], b.tier)
              << p.name << " chunk " << b.chunk;
        }
      }
      // Round-robin over 3 tiers with 4 chunks must actually scatter.
      const std::set<std::uint32_t> distinct(p.chunk_tiers.begin(),
                                             p.chunk_tiers.end());
      EXPECT_GE(distinct.size(), 2u) << p.name;
    }
  }
}

TEST(Refactorer, PrebuiltCascadeMatchesFromScratchRefactor) {
  // A prebuilt-cascade write must store the exact same container as a
  // (mesh, values) write, minus the decimation phase.
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;

  auto tiers_a = big_two_tiers();
  const auto from_scratch =
      ct::write_field(tiers_a, "a.bp", "v", mesh, values, config);

  const auto cascade =
      cm::build_cascade(mesh, values, cc::cascade_options(config));
  auto tiers_b = big_two_tiers();
  const auto prebuilt =
      ct::write_cascade(tiers_b, "a.bp", "v", cascade, config);

  EXPECT_GT(from_scratch.phases.get("decimation"), 0.0);
  EXPECT_EQ(prebuilt.phases.get("decimation"), 0.0);
  ASSERT_EQ(prebuilt.products.size(), from_scratch.products.size());
  for (std::size_t i = 0; i < prebuilt.products.size(); ++i) {
    EXPECT_EQ(prebuilt.products[i].name, from_scratch.products[i].name);
    EXPECT_EQ(prebuilt.products[i].stored_bytes,
              from_scratch.products[i].stored_bytes);
    EXPECT_EQ(prebuilt.products[i].tier, from_scratch.products[i].tier);
  }
  EXPECT_EQ(prebuilt.level_vertices, from_scratch.level_vertices);
}

TEST(Refactorer, XgcContainerBytesPinned) {
  // Every stored product of a small XGC1 refactor, hashed in index order and
  // compared with a constant: any write-path change that alters a single
  // stored byte (decimation, vertex mapping, delta, codec, placement) fails
  // here. The constant assumes IEEE double arithmetic without floating-point
  // contraction, the x86-64 default.
  canopus::sim::XgcOptions xopt;
  xopt.rings = 24;
  xopt.sectors = 120;
  const auto ds = canopus::sim::make_xgc_dataset(xopt);
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  config.delta_chunks = 8;

  // The pin must cover the nearest-triangle fallback: decimation shrinks the
  // annulus rim, so some fine vertices fall outside the next coarse level.
  const auto cascade =
      cm::build_cascade(ds.mesh, ds.values, cc::cascade_options(config));
  std::size_t misses = 0;
  for (std::size_t l = 0; l + 1 < cascade.level_count(); ++l) {
    const cm::PointLocator locator(cascade.levels[l + 1].mesh);
    const auto& fine = cascade.levels[l].mesh;
    for (cm::VertexId v = 0; v < fine.vertex_count(); ++v) {
      if (!locator.try_locate(fine.vertex(v))) ++misses;
    }
  }
  ASSERT_GT(misses, 0u);

  canopus::Pipeline pipeline(big_two_tiers());
  canopus::WriteRequest wreq;
  wreq.path = "xgc.bp";
  wreq.var = "dpot";
  wreq.mesh = &ds.mesh;
  wreq.values = &ds.values;
  wreq.config = config;
  ASSERT_TRUE(pipeline.write(wreq).ok());

  // FNV-1a over (key, payload) of every block record.
  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ p[i]) * 0x100000001b3ull;
    }
  };
  ca::BpReader reader(pipeline.hierarchy(), wreq.path);
  const auto records = reader.inq_var(wreq.var).blocks;
  ASSERT_GT(records.size(), 0u);
  for (const auto& record : records) {
    cu::Bytes bytes;
    pipeline.hierarchy().read(record.object_key, bytes);
    mix(record.object_key.data(), record.object_key.size());
    mix(bytes.data(), bytes.size());
  }
  EXPECT_EQ(hash, 0x834ad2e72a59ef90ull) << std::hex << "0x" << hash;
}

TEST(Refactorer, BypassesFullFastTier) {
  // Tiny fast tier: nothing fits there, everything lands on the slow tier.
  cs::StorageHierarchy tiers({cs::tmpfs_spec(64), cs::lustre_spec(1 << 30)});
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 2;
  const auto report = ct::write_field(tiers, "r.bp", "v", mesh,
                                      smooth_field(mesh), config);
  for (const auto& p : report.products) EXPECT_EQ(p.tier, 1u);
}

TEST(Refactorer, CanopusBeatsDirectMultilevelStorage) {
  // Motivation 2 / Fig. 5: storing base + deltas is smaller than storing all
  // decimated levels directly at the same codec accuracy.
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(20, 120, 0.5, 1.0, 0.1, 21);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-5;
  const auto canopus = ct::write_field(tiers, "c.bp", "v", mesh, values,
                                       config);
  const auto direct = cc::direct_multilevel_sizes(mesh, values, config);
  EXPECT_LT(canopus.total_stored_bytes(), direct.total_stored_bytes());
}

TEST(Refactorer, SingleLevelDegeneratesToBaseOnly) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(10, 10, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 1;
  const auto report = ct::write_field(tiers, "one.bp", "v", mesh,
                                      smooth_field(mesh), config);
  ASSERT_EQ(report.products.size(), 1u);
  EXPECT_EQ(report.products[0].name, "base");
  EXPECT_EQ(report.products[0].level, 0u);
}

// ----------------------------------------------------- progressive reader --

TEST(ProgressiveReader, BaseThenRefineToFull) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(12, 80, 0.5, 1.0, 0.1, 33);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  ct::write_field(tiers, "p.bp", "dpot", mesh, values, config);

  const auto reader = ct::open_reader(tiers, "p.bp", "dpot");
  EXPECT_EQ(reader->level_count(), 3u);
  EXPECT_EQ(reader->current_level(), 2u);
  EXPECT_GT(reader->decimation_ratio(), 3.0);
  const auto base_vertices = reader->values().size();
  EXPECT_LT(base_vertices, mesh.vertex_count());
  EXPECT_EQ(reader->values().size(), reader->current_mesh().vertex_count());

  const auto step = reader->refine();
  EXPECT_EQ(reader->current_level(), 1u);
  EXPECT_GT(reader->values().size(), base_vertices);
  EXPECT_GT(step.io_seconds, 0.0);
  EXPECT_GT(step.restore_seconds, 0.0);

  reader->refine();
  EXPECT_TRUE(reader->at_full_accuracy());
  ASSERT_EQ(reader->values().size(), values.size());
  // Error budget: one codec bound per product applied along the chain
  // (base + 2 deltas), so <= 3 * eb.
  EXPECT_LE(cu::max_abs_error(values, reader->values()),
            3.0 * config.error_bound);
  EXPECT_THROW(reader->refine(), canopus::Error);
}

TEST(ProgressiveReader, RefineToSkipsLevels) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 90, 0.5, 1.0, 0.1, 41);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 4;
  config.error_bound = 1e-6;
  ct::write_field(tiers, "p4.bp", "v", mesh, values, config);

  const auto reader = ct::open_reader(tiers, "p4.bp", "v");
  EXPECT_EQ(reader->current_level(), 3u);
  const auto t = reader->refine_to(0);
  EXPECT_TRUE(reader->at_full_accuracy());
  EXPECT_GT(t.io_seconds, 0.0);
  EXPECT_LE(cu::max_abs_error(values, reader->values()),
            4.0 * config.error_bound);
}

TEST(ProgressiveReader, LosslessChainIsExactToRounding) {
  // With a lossless codec the only reconstruction error left is the
  // floating-point rounding of fl((x - est) + est): at most a few ulps.
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.2, 43);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";
  ct::write_field(tiers, "exact.bp", "v", mesh, values, config);

  const auto reader = ct::open_reader(tiers, "exact.bp", "v");
  reader->refine_to(0);
  ASSERT_EQ(reader->values().size(), values.size());
  EXPECT_LE(cu::max_abs_error(values, reader->values()), 1e-14);
}

TEST(ProgressiveReader, EachRefinementImprovesAccuracy) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 47);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-8;
  ct::write_field(tiers, "imp.bp", "v", mesh, values, config);

  // Reference restoration chain evaluated against rasterized comparisons is
  // heavy; instead compare RMS error of the *restored full level* as we start
  // from deeper bases. Here: verify the restored L0 from all levels matches,
  // and that intermediate levels have monotonically growing vertex counts.
  const auto reader = ct::open_reader(tiers, "imp.bp", "v");
  std::size_t prev = reader->values().size();
  while (!reader->at_full_accuracy()) {
    reader->refine();
    EXPECT_GT(reader->values().size(), prev);
    prev = reader->values().size();
  }
  EXPECT_LE(cu::max_abs_error(values, reader->values()),
            4 * config.error_bound);
}

TEST(ProgressiveReader, RefineUntilStopsEarlyOnSmoothData) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 53);
  // Nearly constant field: refinements contribute almost nothing, so a loose
  // threshold stops at the first refinement.
  cm::Field values(mesh.vertex_count(), 5.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] += 1e-6 * std::sin(static_cast<double>(i));
  }
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "fpc";
  ct::write_field(tiers, "ru.bp", "v", mesh, values, config);

  const auto reader = ct::open_reader(tiers, "ru.bp", "v");
  reader->refine_until(1e-3);
  EXPECT_GT(reader->current_level(), 0u);  // stopped before full accuracy

  const auto reader2 = ct::open_reader(tiers, "ru.bp", "v");
  reader2->refine_until(0.0);  // impossible threshold -> full accuracy
  EXPECT_TRUE(reader2->at_full_accuracy());
}

TEST(ProgressiveReader, CumulativeTimingsAccumulate) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 3;
  ct::write_field(tiers, "t.bp", "v", mesh, smooth_field(mesh), config);

  const auto reader = ct::open_reader(tiers, "t.bp", "v");
  const double after_open = reader->cumulative().io_seconds;
  EXPECT_GT(after_open, 0.0);
  reader->refine();
  EXPECT_GT(reader->cumulative().io_seconds, after_open);
  EXPECT_GT(reader->cumulative().bytes_read, 0u);
}

TEST(ProgressiveReader, RestoredMeshesAreValid) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_disk_mesh(12, 64, 1.0, 0.1, 59);
  cc::RefactorConfig config;
  config.levels = 3;
  ct::write_field(tiers, "m.bp", "v", mesh, smooth_field(mesh), config);
  const auto reader = ct::open_reader(tiers, "m.bp", "v");
  while (true) {
    const auto report = cm::validate(reader->current_mesh());
    EXPECT_TRUE(report.ok) << "level " << reader->current_level();
    if (reader->at_full_accuracy()) break;
    reader->refine();
  }
}

// ----------------------------------------------------------- error budget --

TEST(ErrorBudget, TotalBudgetHeldEndToEnd) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 61);
  const auto values = smooth_field(mesh);
  cc::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.set_total_error_budget(1e-4);
  EXPECT_DOUBLE_EQ(config.error_bound, 2.5e-5);
  ct::write_field(tiers, "budget.bp", "v", mesh, values, config);
  const auto reader = ct::open_reader(tiers, "budget.bp", "v");
  reader->refine_to(0);
  EXPECT_LE(cu::max_abs_error(values, reader->values()), 1e-4);
}

TEST(ProgressiveReader, RefineUntilValidatesThreshold) {
  auto tiers = big_two_tiers();
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";
  ct::write_field(tiers, "rv.bp", "v", mesh, smooth_field(mesh), config);

  const auto reader = ct::open_reader(tiers, "rv.bp", "v");
  const auto before = reader->current_level();
  // A NaN/inf threshold is a caller bug, rejected before any I/O...
  EXPECT_THROW(reader->refine_until(std::nan("")), canopus::Error);
  EXPECT_THROW(
      reader->refine_until(std::numeric_limits<double>::infinity()),
      canopus::Error);
  EXPECT_EQ(reader->current_level(), before);
  // ...while any threshold <= 0 is legal and means "never stop early":
  // refine all the way to full accuracy.
  reader->refine_until(-1.0);
  EXPECT_TRUE(reader->at_full_accuracy());
}

// ----------------------------------------------------- simd equivalence --

// The vectorized estimate/residual loops (including the in-register
// transpose of the barycentric weights) are speed-only: every estimate mode
// must produce the exact bytes of the scalar loop, delta and restore alike.
TEST(Delta, SimdMatchesScalarBitwiseAllModes) {
  const auto fine_mesh = cm::make_annulus_mesh(12, 80, 0.5, 1.0, 0.15, 3);
  const auto fine_values = smooth_field(fine_mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto coarse = cm::decimate(fine_mesh, fine_values, opt);
  const auto mapping = cc::build_mapping(fine_mesh, coarse.mesh);

  for (const auto mode :
       {cc::EstimateMode::kUniformThirds, cc::EstimateMode::kBarycentric,
        cc::EstimateMode::kNearestVertex}) {
    cm::Field scalar_delta, scalar_restored;
    {
      cu::simd::ScopedForceScalar force;
      scalar_delta = cc::compute_delta(coarse.mesh, coarse.values, fine_values,
                                       mapping, mode);
      scalar_restored = cc::restore_level(coarse.mesh, coarse.values,
                                          scalar_delta, mapping, mode);
    }
    const auto simd_delta = cc::compute_delta(coarse.mesh, coarse.values,
                                              fine_values, mapping, mode);
    const auto simd_restored = cc::restore_level(
        coarse.mesh, coarse.values, simd_delta, mapping, mode);

    ASSERT_EQ(scalar_delta.size(), simd_delta.size());
    for (std::size_t i = 0; i < simd_delta.size(); ++i) {
      ASSERT_EQ(scalar_delta[i], simd_delta[i])
          << "mode " << static_cast<int>(mode) << " vertex " << i;
      ASSERT_EQ(scalar_restored[i], simd_restored[i])
          << "mode " << static_cast<int>(mode) << " vertex " << i;
    }
  }
}
