// Tests for focused (region-of-interest) retrieval: spatial ordering, chunk
// indexing, chunked round trips, and ROI refinement accuracy/IO semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adios/bp.hpp"
#include "core/canopus.hpp"
#include "mesh/generators.hpp"
#include "sim/datasets.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "util/stats.hpp"
#include "test_support.hpp"

namespace ca = canopus::adios;
namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace cu = canopus::util;
namespace ct = canopus::test;

namespace {

cm::Field bump_field(const cm::TriMesh& mesh, cm::Vec2 center, double sigma) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double d2 = (p - center).norm2();
    f[v] = std::exp(-d2 / (2 * sigma * sigma)) +
           0.05 * std::sin(9.0 * p.x) * std::cos(7.0 * p.y);
  }
  return f;
}

cs::StorageHierarchy tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(16 << 20), cs::lustre_spec(1 << 30)});
}

}  // namespace

TEST(SpatialOrder, IsAPermutation) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.2, 3), 7);
  const auto order = cm::spatial_order(mesh);
  ASSERT_EQ(order.size(), mesh.vertex_count());
  std::vector<bool> seen(order.size(), false);
  for (auto v : order) {
    ASSERT_LT(v, seen.size());
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(SpatialOrder, ConsecutivePositionsAreSpatiallyClose) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.1, 3), 7);
  const auto order = cm::spatial_order(mesh);
  // Mean hop distance along the curve should be far below the domain size.
  double acc = 0.0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    acc += cm::distance(mesh.vertex(order[i - 1]), mesh.vertex(order[i]));
  }
  EXPECT_LT(acc / static_cast<double>(order.size() - 1), 0.15);
}

TEST(SpatialOrder, DeterministicAcrossCalls) {
  const auto mesh = cm::make_disk_mesh(8, 40, 1.0, 0.1, 5);
  EXPECT_EQ(cm::spatial_order(mesh), cm::spatial_order(mesh));
}

TEST(ChunkIndex, SerializeRoundTripAndIntersection) {
  cc::ChunkIndex idx;
  idx.chunks.push_back({0, 10, {{0, 0}, {1, 1}}});
  idx.chunks.push_back({10, 10, {{2, 2}, {3, 3}}});
  cu::ByteWriter w;
  idx.serialize(w);
  cu::ByteReader r(w.view());
  const auto copy = cc::ChunkIndex::deserialize(r);
  ASSERT_EQ(copy.chunks.size(), 2u);
  EXPECT_EQ(copy.chunks[1].start, 10u);
  EXPECT_EQ(copy.chunks[1].bbox.hi.x, 3.0);

  EXPECT_EQ(idx.intersecting({{0.5, 0.5}, {0.6, 0.6}}),
            (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(idx.intersecting({{2.5, 2.5}, {2.6, 2.6}}),
            (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(idx.intersecting({{0.5, 0.5}, {2.5, 2.5}}),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(idx.intersecting({{10, 10}, {11, 11}}).empty());
}

TEST(ChunkedDeltas, FullRefineMatchesUnchunked) {
  // Chunked storage is an encoding detail: a full refine must restore the
  // same values as the monolithic layout.
  const auto mesh = cm::shuffle_vertices(
      cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9), 4);
  const auto values = bump_field(mesh, {0.0, 0.8}, 0.08);
  auto t1 = tiers();
  auto t2 = tiers();
  cc::RefactorConfig mono, chunked;
  mono.levels = chunked.levels = 3;
  mono.codec = chunked.codec = "fpc";  // lossless: outputs comparable exactly
  chunked.delta_chunks = 16;
  ct::write_field(t1, "m.bp", "v", mesh, values, mono);
  ct::write_field(t2, "c.bp", "v", mesh, values, chunked);
  const auto rm = ct::open_reader(t1, "m.bp", "v");
  const auto rc = ct::open_reader(t2, "c.bp", "v");
  rm->refine_to(0);
  rc->refine_to(0);
  ASSERT_EQ(rm->values().size(), rc->values().size());
  for (std::size_t i = 0; i < rm->values().size(); ++i) {
    EXPECT_EQ(rm->values()[i], rc->values()[i]) << i;
  }
  EXPECT_FALSE(rc->partially_refined());
}

TEST(RoiRefine, AccurateInsideEstimateOutside) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(50, 50, 2.0, 2.0, 0.1, 13), 8);
  const cm::Vec2 feature{1.5, 1.5};
  const auto values = bump_field(mesh, feature, 0.12);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  config.delta_chunks = 32;
  ct::write_field(h, "roi.bp", "v", mesh, values, config);

  const cm::Aabb roi{{1.2, 1.2}, {1.8, 1.8}};
  const auto reader = ct::open_reader(h, "roi.bp", "v");
  reader->refine_region(roi);
  EXPECT_TRUE(reader->partially_refined());
  EXPECT_TRUE(reader->at_full_accuracy());
  ASSERT_EQ(reader->values().size(), values.size());

  double inside_err = 0.0, outside_err = 0.0;
  std::size_t inside_n = 0;
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double err = std::abs(reader->values()[v] - values[v]);
    const bool inside = p.x >= roi.lo.x && p.x <= roi.hi.x &&
                        p.y >= roi.lo.y && p.y <= roi.hi.y;
    if (inside) {
      inside_err = std::max(inside_err, err);
      ++inside_n;
    } else {
      outside_err = std::max(outside_err, err);
    }
  }
  ASSERT_GT(inside_n, 20u);
  // Inside the ROI the restoration is delta-exact (codec bound only)...
  EXPECT_LE(inside_err, 2e-7);
  // ...outside it is estimate-only, so visibly less accurate near structure.
  EXPECT_GT(outside_err, 1e-3);
}

TEST(RoiRefine, ReadsFewerBytesThanFullRefine) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(60, 60, 2.0, 2.0, 0.1, 17), 8);
  const auto values = bump_field(mesh, {0.4, 0.4}, 0.15);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 64;
  ct::write_field(h, "roi.bp", "v", mesh, values, config);

  // Shared geometry cache: only data (delta) bytes differ between the modes.
  const auto geometry = cc::GeometryCache::load(h, "roi.bp", "v");
  const auto full = ct::open_reader(h, "roi.bp", "v", &geometry);
  const auto full_step = full->refine();
  const auto focused = ct::open_reader(h, "roi.bp", "v", &geometry);
  const auto roi_step = focused->refine_region({{0.2, 0.2}, {0.6, 0.6}});
  // Compare the refinement step itself (both readers paid the same base
  // read): the ROI fetches a handful of chunks instead of the whole delta.
  EXPECT_LT(roi_step.bytes_read, full_step.bytes_read / 2);
  EXPECT_LT(focused->cumulative().io_seconds, full->cumulative().io_seconds);
}

TEST(RoiRefine, UnchunkedVariableFallsBackToFullRefine) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.1, 19);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.2);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "fpc";
  ct::write_field(h, "mono.bp", "v", mesh, values, config);
  const auto reader = ct::open_reader(h, "mono.bp", "v");
  reader->refine_region({{0.4, 0.4}, {0.6, 0.6}});
  EXPECT_TRUE(reader->at_full_accuracy());
  EXPECT_FALSE(reader->partially_refined());  // full fallback applied all data
  EXPECT_LE(cu::max_abs_error(values, reader->values()), 1e-13);
}

TEST(RoiRefine, WorksWithGeometryCache) {
  const auto mesh = cm::shuffle_vertices(
      cm::make_annulus_mesh(14, 84, 0.5, 1.0, 0.1, 23), 6);
  const auto values = bump_field(mesh, {0.8, 0.0}, 0.1);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  config.delta_chunks = 24;
  ct::write_field(h, "gc.bp", "v", mesh, values, config);
  const auto geometry = cc::GeometryCache::load(h, "gc.bp", "v");
  const auto reader = ct::open_reader(h, "gc.bp", "v", &geometry);
  reader->refine_region({{0.6, -0.2}, {1.0, 0.2}});
  reader->refine_region({{0.6, -0.2}, {1.0, 0.2}});
  EXPECT_TRUE(reader->at_full_accuracy());
  // The feature region restored accurately through both regional steps.
  double feature_err = 0.0;
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    if (p.x >= 0.65 && p.x <= 0.95 && std::abs(p.y) <= 0.15) {
      feature_err = std::max(feature_err,
                             std::abs(reader->values()[v] - values[v]));
    }
  }
  EXPECT_LE(feature_err, 5e-7);
}

// ------------------------------------------- partial-flag lifecycle (fix) --

TEST(RoiRefine, FullRefineAfterRegionalBackfillsAndClearsFlag) {
  // Regression: partially_refined() used to latch forever. A full refine()
  // after a regional step must first backfill the delta chunks the ROI
  // skipped (making that level exact again) and then clear the flag.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(40, 40, 2.0, 2.0, 0.1, 29), 8);
  const auto values = bump_field(mesh, {1.6, 1.6}, 0.12);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";  // lossless: restored values comparable bitwise
  config.delta_chunks = 16;
  ct::write_field(h, "bf.bp", "v", mesh, values, config);

  const auto reader = ct::open_reader(h, "bf.bp", "v");
  reader->refine_region({{1.3, 1.3}, {1.9, 1.9}});  // partial coverage
  ASSERT_TRUE(reader->partially_refined());
  const std::uint32_t after_roi = reader->current_level();

  const auto backfill_step = reader->refine();  // backfill + next level
  EXPECT_FALSE(reader->partially_refined());
  EXPECT_EQ(reader->current_level(), after_roi - 1);
  EXPECT_GT(backfill_step.bytes_read, 0u);

  // The backfilled state is bitwise the state of a reader that never took
  // the regional detour.
  auto h2 = tiers();
  ct::write_field(h2, "bf.bp", "v", mesh, values, config);
  const auto straight = ct::open_reader(h2, "bf.bp", "v");
  straight->refine_to(reader->current_level());
  ASSERT_EQ(reader->values().size(), straight->values().size());
  for (std::size_t i = 0; i < reader->values().size(); ++i) {
    ASSERT_EQ(reader->values()[i], straight->values()[i]) << "vertex " << i;
  }
}

TEST(RoiRefine, BackfillResumesExactlyAfterMidwayFault) {
  // A tier fault mid-backfill keeps the chunks that landed applied and the
  // rest pending: once the fault clears, the next full refine finishes the
  // backfill and lands bitwise on the state of a reader that never took the
  // regional step. On the blocking path (depth 1) and on a depth-4 ring.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(40, 40, 2.0, 2.0, 0.1, 29), 8);
  const auto values = bump_field(mesh, {1.6, 1.6}, 0.12);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "fpc";  // lossless: restored values comparable bitwise
  config.delta_chunks = 16;
  const cm::Aabb roi{{1.3, 1.3}, {1.9, 1.9}};

  auto h0 = tiers();
  ct::write_field(h0, "bf.bp", "v", mesh, values, config);
  const auto straight = ct::open_reader(h0, "bf.bp", "v");
  straight->refine_to(0);

  for (const std::uint32_t depth : {1u, 4u}) {
    SCOPED_TRACE("io depth " + std::to_string(depth));
    auto h = tiers();
    ct::write_field(h, "bf.bp", "v", mesh, values, config);
    canopus::Options opts;
    opts.io.depth = depth;
    const auto reader = ct::open_reader(h, "bf.bp", "v", nullptr, opts);
    reader->refine_region(roi);
    ASSERT_TRUE(reader->partially_refined());
    const std::uint32_t level = reader->current_level();

    // The backfill reads the skipped chunks from the highest id down. Keep
    // the first of them on the fast tier and strand the rest on a tier that
    // fails every read: the fetch lands one chunk, then faults.
    const ca::BpReader bp(h, "bf.bp");
    const auto raw = bp.read_opaque("v", ca::BlockKind::kChunkIndex, level);
    cu::ByteReader br(raw);
    const auto wanted = cc::ChunkIndex::deserialize(br).intersecting(roi);
    std::vector<std::pair<std::uint32_t, std::string>> skipped;
    for (const auto& b : bp.inq_var("v").blocks) {
      if (b.kind == ca::BlockKind::kDelta && b.level == level &&
          !std::binary_search(wanted.begin(), wanted.end(), b.chunk)) {
        skipped.emplace_back(b.chunk, b.object_key);
      }
    }
    std::sort(skipped.begin(), skipped.end());
    ASSERT_GE(skipped.size(), 2u);
    for (std::size_t i = 0; i < skipped.size(); ++i) {
      h.migrate(skipped[i].second, i + 1 == skipped.size() ? 0 : 1);
    }
    auto injector = std::make_shared<cs::FaultInjector>(1);
    cs::FaultProfile dead;
    dead.read_error = 1.0;
    injector->set_profile(1, dead);
    h.attach_fault_injector(injector);

    const auto failed = reader->refine();
    EXPECT_EQ(reader->last_status(), cc::RefineStatus::kDegraded);
    EXPECT_EQ(reader->current_level(), level);
    EXPECT_TRUE(reader->partially_refined());
    EXPECT_GT(failed.bytes_read, 0u);  // the first skipped chunk landed

    h.attach_fault_injector(nullptr);
    reader->refine_to(0);
    EXPECT_EQ(reader->last_status(), cc::RefineStatus::kOk);
    EXPECT_FALSE(reader->partially_refined());
    ASSERT_TRUE(reader->at_full_accuracy());
    ASSERT_EQ(reader->values().size(), straight->values().size());
    for (std::size_t i = 0; i < reader->values().size(); ++i) {
      ASSERT_EQ(reader->values()[i], straight->values()[i]) << "vertex " << i;
    }
  }
}

TEST(RoiRefine, FullCoverageRoiLeavesPartialFlagClear) {
  // An ROI covering every chunk skips nothing: no flag, nothing to backfill.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.1, 31), 8);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.2);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "fpc";
  config.delta_chunks = 8;
  ct::write_field(h, "fc.bp", "v", mesh, values, config);

  const auto reader = ct::open_reader(h, "fc.bp", "v");
  reader->refine_region({{-10.0, -10.0}, {10.0, 10.0}});
  EXPECT_FALSE(reader->partially_refined());
  EXPECT_TRUE(reader->at_full_accuracy());
  EXPECT_LE(cu::max_abs_error(values, reader->values()), 1e-13);
}

TEST(RoiRefine, StackedPartialRegionsStaySticky) {
  // Two partial regional steps stack estimate-only regions from different
  // levels; no single backfill can reconcile that, so the flag stays set.
  const auto mesh = cm::shuffle_vertices(
      cm::make_rect_mesh(40, 40, 2.0, 2.0, 0.1, 37), 8);
  const auto values = bump_field(mesh, {0.5, 0.5}, 0.15);
  auto h = tiers();
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-7;
  config.delta_chunks = 16;
  ct::write_field(h, "st.bp", "v", mesh, values, config);

  const auto reader = ct::open_reader(h, "st.bp", "v");
  reader->refine_region({{0.2, 0.2}, {0.8, 0.8}});
  ASSERT_TRUE(reader->partially_refined());
  reader->refine_region({{0.3, 0.3}, {0.7, 0.7}});
  EXPECT_TRUE(reader->at_full_accuracy());
  EXPECT_TRUE(reader->partially_refined());  // sticky by design once stacked
}
