// Tests for write-path transport modes (in situ vs in transit) and the
// chunked BP container API they build on.

#include <gtest/gtest.h>

#include <cmath>

#include "adios/bp.hpp"
#include "core/canopus.hpp"
#include "mesh/generators.hpp"
#include "storage/hierarchy.hpp"
#include "util/stats.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ca = canopus::adios;
namespace cu = canopus::util;

namespace {

cm::Field wavy(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(2.0 * p.x) + std::cos(3.0 * p.y);
  }
  return f;
}

/// Fast staging (DRAM) over a slow PFS, as in a burst-buffer deployment.
cs::StorageHierarchy staged_tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(32 << 20), cs::lustre_spec(1 << 30)});
}

}  // namespace

TEST(Transport, ModeStringsRoundTrip) {
  for (auto mode : {cc::TransportMode::kInSitu, cc::TransportMode::kInTransit}) {
    EXPECT_EQ(cc::transport_mode_from_string(cc::to_string(mode)), mode);
  }
  EXPECT_THROW(cc::transport_mode_from_string("rpc"), canopus::Error);
}

TEST(Transport, InTransitBlocksSimulationLess) {
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 3);
  const auto values = wavy(mesh);
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;

  canopus::Pipeline p1(staged_tiers());
  const auto in_situ = cc::write_with_transport(
      p1, "a.bp", "v", mesh, values, config, cc::TransportMode::kInSitu);
  canopus::Pipeline p2(staged_tiers());
  const auto in_transit = cc::write_with_transport(
      p2, "b.bp", "v", mesh, values, config, cc::TransportMode::kInTransit, 0);

  // Staging a raw burst to DRAM blocks the simulation far less than the
  // full refactor+place path.
  EXPECT_LT(in_transit.simulation_blocked_seconds,
            in_situ.simulation_blocked_seconds / 2);
  EXPECT_GT(in_transit.drain_seconds, 0.0);
  EXPECT_EQ(in_situ.drain_seconds, 0.0);
}

TEST(Transport, BothModesProduceIdenticalContainers) {
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0, 0.1, 5);
  const auto values = wavy(mesh);
  cc::RefactorConfig config;
  config.levels = 2;
  config.codec = "fpc";  // lossless: restored values must match bit-for-bit

  canopus::Pipeline p1(staged_tiers());
  canopus::Pipeline p2(staged_tiers());
  cc::write_with_transport(p1, "a.bp", "v", mesh, values, config,
                           cc::TransportMode::kInSitu);
  cc::write_with_transport(p2, "b.bp", "v", mesh, values, config,
                           cc::TransportMode::kInTransit, 0);
  canopus::ReadRequest request;
  request.var = "v";
  canopus::ReadResult a;
  canopus::ReadResult b;
  request.path = "a.bp";
  ASSERT_TRUE(p1.read(request, &a).ok());
  request.path = "b.bp";
  ASSERT_TRUE(p2.read(request, &b).ok());
  EXPECT_EQ(a.values, b.values);
}

TEST(Transport, StagedCopyIsReleasedAfterDrain) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0);
  const auto values = wavy(mesh);
  auto tiers = staged_tiers();
  canopus::Pipeline pipeline(tiers);
  const std::size_t before = tiers.tier(0).used_bytes();
  cc::RefactorConfig config;
  config.levels = 2;
  cc::write_with_transport(pipeline, "c.bp", "v", mesh, values, config,
                           cc::TransportMode::kInTransit, 0);
  // The staging slot is empty again; only refactored products remain.
  EXPECT_EQ(tiers.find("c.bp/v/.staged"), std::nullopt);
  EXPECT_GE(tiers.tier(0).used_bytes(), before);
}

TEST(Transport, StagingTierTooSmallThrows) {
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0);
  const auto values = wavy(mesh);
  canopus::Pipeline pipeline(
      cs::StorageHierarchy({cs::tmpfs_spec(64), cs::lustre_spec(1 << 30)}));
  cc::RefactorConfig config;
  config.levels = 2;
  EXPECT_THROW(
      cc::write_with_transport(pipeline, "x.bp", "v", mesh, values, config,
                               cc::TransportMode::kInTransit, 0),
      canopus::Error);
}

// ------------------------------------------------------- chunked BP blocks --

TEST(BpChunks, ChunkedWriteReadRoundTrip) {
  auto tiers = staged_tiers();
  std::vector<double> part0{1.0, 2.0, 3.0};
  std::vector<double> part1{4.0, 5.0};
  {
    ca::BpWriter w(tiers, "ch.bp");
    w.write_doubles_chunk("v", ca::BlockKind::kData, 0, 0, 2, part0, "raw", 0.0);
    w.write_doubles_chunk("v", ca::BlockKind::kData, 0, 1, 2, part1, "raw", 0.0);
    w.close();
  }
  ca::BpReader r(tiers, "ch.bp");
  EXPECT_EQ(r.read_doubles_chunk("v", ca::BlockKind::kData, 0, 0), part0);
  EXPECT_EQ(r.read_doubles_chunk("v", ca::BlockKind::kData, 0, 1), part1);
  EXPECT_THROW(r.read_doubles_chunk("v", ca::BlockKind::kData, 0, 2),
               canopus::Error);
  const auto info = r.inq_var("v");
  EXPECT_EQ(info.blocks.size(), 2u);
  EXPECT_EQ(info.blocks[0].chunk_count, 2u);
}

TEST(BpChunks, ChunkIndexOutOfRangeRejectedAtWrite) {
  auto tiers = staged_tiers();
  ca::BpWriter w(tiers, "bad.bp");
  std::vector<double> xs{1.0};
  EXPECT_THROW(
      w.write_doubles_chunk("v", ca::BlockKind::kData, 0, 2, 2, xs, "raw", 0.0),
      canopus::Error);
}

TEST(BpChunks, RewriteReplacesOnlyMatchingChunk) {
  auto tiers = staged_tiers();
  {
    ca::BpWriter w(tiers, "rw.bp");
    w.write_doubles_chunk("v", ca::BlockKind::kData, 0, 0, 2,
                          std::vector<double>{1.0}, "raw", 0.0);
    w.write_doubles_chunk("v", ca::BlockKind::kData, 0, 1, 2,
                          std::vector<double>{2.0}, "raw", 0.0);
    w.write_doubles_chunk("v", ca::BlockKind::kData, 0, 1, 2,
                          std::vector<double>{9.0, 9.5}, "raw", 0.0);
    w.close();
  }
  ca::BpReader r(tiers, "rw.bp");
  EXPECT_EQ(r.inq_var("v").blocks.size(), 2u);
  EXPECT_EQ(r.read_doubles_chunk("v", ca::BlockKind::kData, 0, 0),
            (std::vector<double>{1.0}));
  EXPECT_EQ(r.read_doubles_chunk("v", ca::BlockKind::kData, 0, 1),
            (std::vector<double>{9.0, 9.5}));
}
