// Tests for the mesh substrate: geometry primitives, TriMesh invariants,
// generators, point location, edge-collapse decimation (Algorithm 1), and the
// multi-level cascade.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <vector>

#include "mesh/cascade.hpp"
#include "mesh/decimate.hpp"
#include "mesh/generators.hpp"
#include "mesh/geometry.hpp"
#include "mesh/mesh_io.hpp"
#include "mesh/point_locator.hpp"
#include "mesh/tri_mesh.hpp"
#include "mesh/validate.hpp"
#include "util/rng.hpp"

namespace cm = canopus::mesh;
namespace cu = canopus::util;

namespace {

/// Smooth analytic test field evaluated at mesh vertices.
cm::Field make_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 1.7) * std::cos(p.y * 2.3) + 0.1 * p.x;
  }
  return f;
}

void expect_valid(const cm::TriMesh& mesh, const std::string& context) {
  const auto report = cm::validate(mesh);
  EXPECT_TRUE(report.ok) << context << ": "
                         << (report.problems.empty() ? "?" : report.problems[0]);
}

}  // namespace

// --------------------------------------------------------------- geometry --

TEST(Geometry, SignedAreaOrientation) {
  const cm::Vec2 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_GT(cm::signed_area2(a, b, c), 0.0);  // CCW
  EXPECT_LT(cm::signed_area2(a, c, b), 0.0);  // CW
  EXPECT_DOUBLE_EQ(cm::triangle_area(a, b, c), 0.5);
}

TEST(Geometry, BarycentricAtVerticesAndCentroid) {
  const cm::Vec2 a{0, 0}, b{2, 0}, c{0, 2};
  auto w = cm::barycentric(a, a, b, c);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  w = cm::barycentric(c, a, b, c);
  EXPECT_NEAR(w[2], 1.0, 1e-12);
  const cm::Vec2 centroid = (a + b + c) / 3.0;
  w = cm::barycentric(centroid, a, b, c);
  for (double wi : w) EXPECT_NEAR(wi, 1.0 / 3.0, 1e-12);
}

TEST(Geometry, BarycentricWeightsSumToOne) {
  cu::Rng rng(3);
  const cm::Vec2 a{0.3, 0.1}, b{2.5, 0.4}, c{1.1, 3.3};
  for (int i = 0; i < 100; ++i) {
    const cm::Vec2 p{rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const auto w = cm::barycentric(p, a, b, c);
    EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-9);
    // Reconstruction property: p == wa*a + wb*b + wc*c.
    const cm::Vec2 q = a * w[0] + b * w[1] + c * w[2];
    EXPECT_NEAR(q.x, p.x, 1e-9);
    EXPECT_NEAR(q.y, p.y, 1e-9);
  }
}

TEST(Geometry, PointInTriangle) {
  const cm::Vec2 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_TRUE(cm::point_in_triangle({0.25, 0.25}, a, b, c));
  EXPECT_TRUE(cm::point_in_triangle({0.5, 0.5}, a, b, c));  // on edge
  EXPECT_FALSE(cm::point_in_triangle({0.6, 0.6}, a, b, c));
  EXPECT_FALSE(cm::point_in_triangle({-0.1, 0.5}, a, b, c));
}

// ---------------------------------------------------------------- TriMesh --

TEST(TriMesh, BasicCountsAndEdges) {
  // Two triangles sharing an edge: 4 vertices, 5 edges, 2 faces.
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const std::vector<cm::Triangle> tris{{{0, 1, 2}}, {{0, 2, 3}}};
  const cm::TriMesh mesh(verts, tris);
  EXPECT_EQ(mesh.vertex_count(), 4u);
  EXPECT_EQ(mesh.triangle_count(), 2u);
  EXPECT_EQ(mesh.edges().size(), 5u);
  EXPECT_EQ(mesh.boundary_edges().size(), 4u);
  EXPECT_DOUBLE_EQ(mesh.total_area(), 1.0);
}

TEST(TriMesh, NeighborsAndIncidence) {
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  const std::vector<cm::Triangle> tris{{{0, 1, 2}}, {{0, 2, 3}}};
  const cm::TriMesh mesh(verts, tris);
  const auto edges = mesh.edges();
  auto degree = [&](cm::VertexId v) {
    return std::count_if(edges.begin(), edges.end(),
                         [&](const cm::Edge& e) { return e.a == v || e.b == v; });
  };
  auto incident = [&](cm::VertexId v) {
    return std::count_if(mesh.triangles().begin(), mesh.triangles().end(),
                         [&](const cm::Triangle& t) {
                           return std::find(t.v.begin(), t.v.end(), v) != t.v.end();
                         });
  };
  EXPECT_EQ(degree(0), 3);  // 1, 2, 3
  EXPECT_EQ(degree(1), 2);  // 0, 2
  EXPECT_EQ(incident(0), 2);
  EXPECT_EQ(incident(1), 1);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(TriMesh, RejectsBadTriangles) {
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {1, 1}};
  EXPECT_THROW(cm::TriMesh(verts, {{{0, 1, 5}}}), canopus::Error);
  EXPECT_THROW(cm::TriMesh(verts, {{{0, 1, 1}}}), canopus::Error);
}

TEST(TriMesh, SerializeRoundTrip) {
  const auto mesh = cm::make_rect_mesh(7, 5, 2.0, 1.0, 0.2, 99);
  cu::ByteWriter w;
  mesh.serialize(w);
  cu::ByteReader r(w.view());
  const auto copy = cm::TriMesh::deserialize(r);
  EXPECT_TRUE(copy == mesh);
}

// ------------------------------------------------------------- generators --

TEST(Generators, RectMeshStructure) {
  const auto mesh = cm::make_rect_mesh(10, 8, 1.0, 1.0);
  EXPECT_EQ(mesh.vertex_count(), 11u * 9u);
  EXPECT_EQ(mesh.triangle_count(), 10u * 8u * 2u);
  expect_valid(mesh, "rect");
  EXPECT_NEAR(mesh.total_area(), 1.0, 1e-9);
  const auto report = cm::validate(mesh);
  EXPECT_EQ(report.euler_characteristic, 1);  // disk topology
}

TEST(Generators, RectMeshJitterStaysValid) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0, 0.3, 5);
  expect_valid(mesh, "jittered rect");
}

TEST(Generators, AnnulusTopology) {
  const auto mesh = cm::make_annulus_mesh(8, 64, 0.5, 1.0);
  expect_valid(mesh, "annulus");
  const auto report = cm::validate(mesh);
  EXPECT_EQ(report.euler_characteristic, 0);  // one hole
  EXPECT_EQ(mesh.vertex_count(), 9u * 64u);
}

TEST(Generators, DiskTopology) {
  const auto mesh = cm::make_disk_mesh(6, 32, 1.0);
  expect_valid(mesh, "disk");
  EXPECT_EQ(cm::validate(mesh).euler_characteristic, 1);
  // Area approaches pi for fine meshes; coarse polygon is smaller.
  EXPECT_NEAR(mesh.total_area(), M_PI, 0.1);
}

TEST(Generators, AirfoilHasHole) {
  const auto mesh =
      cm::make_airfoil_mesh(40, 24, 10.0, 6.0, 4.0, 3.0, 3.0, 1.2);
  expect_valid(mesh, "airfoil");
  EXPECT_EQ(cm::validate(mesh).euler_characteristic, 0);  // body hole
}

TEST(Generators, JitterIsDeterministicPerSeed) {
  const auto a = cm::make_rect_mesh(10, 10, 1.0, 1.0, 0.2, 42);
  const auto b = cm::make_rect_mesh(10, 10, 1.0, 1.0, 0.2, 42);
  const auto c = cm::make_rect_mesh(10, 10, 1.0, 1.0, 0.2, 43);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

// ---------------------------------------------------------- point locator --

TEST(PointLocator, FindsContainingTriangleExactly) {
  const auto mesh = cm::make_rect_mesh(12, 12, 1.0, 1.0, 0.25, 3);
  const cm::PointLocator locator(mesh);
  cu::Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    // Sample random points strictly inside the domain bulk.
    const cm::Vec2 p{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)};
    const auto loc = locator.locate(p);
    ASSERT_TRUE(loc.exact);
    const auto& tri = mesh.triangle(loc.triangle);
    EXPECT_TRUE(cm::point_in_triangle(p, mesh.vertex(tri.v[0]),
                                      mesh.vertex(tri.v[1]),
                                      mesh.vertex(tri.v[2]), 1e-9));
    // Weights reconstruct the point.
    const cm::Vec2 q = mesh.vertex(tri.v[0]) * loc.weights[0] +
                       mesh.vertex(tri.v[1]) * loc.weights[1] +
                       mesh.vertex(tri.v[2]) * loc.weights[2];
    EXPECT_NEAR(q.x, p.x, 1e-9);
    EXPECT_NEAR(q.y, p.y, 1e-9);
  }
}

TEST(PointLocator, MeshVerticesLocateToIncidentTriangle) {
  const auto mesh = cm::make_annulus_mesh(6, 48, 0.5, 1.0, 0.2, 4);
  const cm::PointLocator locator(mesh);
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto loc = locator.locate(mesh.vertex(v));
    const auto& tri = mesh.triangle(loc.triangle);
    const bool incident = tri.v[0] == v || tri.v[1] == v || tri.v[2] == v;
    EXPECT_TRUE(incident || loc.exact);
  }
}

TEST(PointLocator, OutsidePointFallsBackToNearest) {
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  const cm::PointLocator locator(mesh);
  const auto loc = locator.locate({2.0, 2.0});
  EXPECT_FALSE(loc.exact);
  // Clamped weights still form a convex combination.
  EXPECT_NEAR(loc.weights[0] + loc.weights[1] + loc.weights[2], 1.0, 1e-12);
  for (double w : loc.weights) EXPECT_GE(w, 0.0);
}

TEST(PointLocator, InterpolationReproducesLinearField) {
  // A linear field interpolated with barycentric weights is exact.
  const auto mesh = cm::make_rect_mesh(9, 9, 1.0, 1.0, 0.2, 11);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 3.0 * p.x - 2.0 * p.y + 0.5;
  }
  const cm::PointLocator locator(mesh);
  cu::Rng rng(21);
  for (int i = 0; i < 200; ++i) {
    const cm::Vec2 p{rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)};
    const auto loc = locator.locate(p);
    const auto& tri = mesh.triangle(loc.triangle);
    const double interp = f[tri.v[0]] * loc.weights[0] +
                          f[tri.v[1]] * loc.weights[1] +
                          f[tri.v[2]] * loc.weights[2];
    EXPECT_NEAR(interp, 3.0 * p.x - 2.0 * p.y + 0.5, 1e-9);
  }
}

namespace {

/// Reference oracle for the nearest-triangle fallback: every triangle's
/// clamped barycentric projection, the nearest kept, ties to the lowest id.
cm::Location nearest_by_scan(const cm::TriMesh& mesh, cm::Vec2 p) {
  cm::Location best;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (cm::TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    const auto& tri = mesh.triangle(t);
    const cm::Vec2 a = mesh.vertex(tri.v[0]), b = mesh.vertex(tri.v[1]),
                   c = mesh.vertex(tri.v[2]);
    auto w = cm::barycentric(p, a, b, c);
    for (double& wi : w) wi = std::max(0.0, wi);
    const double sum = w[0] + w[1] + w[2];
    if (sum <= 0.0) continue;
    for (double& wi : w) wi /= sum;
    const cm::Vec2 proj = a * w[0] + b * w[1] + c * w[2];
    const double d2 = (proj - p).norm2();
    if (d2 < best_d2) {
      best_d2 = d2;
      best = cm::Location{t, w, false};
    }
  }
  return best;
}

/// A square frame around a square hole, [-2,2]² minus (-1,1)², built from
/// one side's six triangles and its exact 90° rotations. From the hole's
/// center, triangles on all four sides project to a point at distance
/// exactly 1, so the nearest-triangle search faces bitwise ties that it
/// must break to the lowest id.
cm::TriMesh make_square_frame() {
  const std::array<std::array<cm::Vec2, 3>, 6> side = {{
      {{{1, -1}, {2, -2}, {2, -1}}},
      {{{1, -1}, {2, -1}, {1, 0}}},
      {{{1, 0}, {2, -1}, {2, 0}}},
      {{{1, 0}, {2, 0}, {1, 1}}},
      {{{1, 1}, {2, 0}, {2, 1}}},
      {{{1, 1}, {2, 1}, {2, 2}}},
  }};
  std::vector<cm::Vec2> verts;
  std::vector<cm::Triangle> tris;
  auto vertex_id = [&verts](cm::Vec2 p) {
    for (cm::VertexId v = 0; v < verts.size(); ++v) {
      if (verts[v].x == p.x && verts[v].y == p.y) return v;
    }
    verts.push_back(p);
    return static_cast<cm::VertexId>(verts.size() - 1);
  };
  for (int quarter = 0; quarter < 4; ++quarter) {
    for (const auto& corners : side) {
      cm::Triangle tri;
      for (int k = 0; k < 3; ++k) {
        cm::Vec2 p = corners[k];
        for (int r = 0; r < quarter; ++r) p = {-p.y, p.x};
        tri.v[k] = vertex_id(p);
      }
      tris.push_back(tri);
    }
  }
  return cm::TriMesh(std::move(verts), std::move(tris));
}

}  // namespace

TEST(PointLocator, FallbackMatchesBruteForceScan) {
  // The grid ring search must return exactly what the full scan returns:
  // same triangle, bitwise-equal weights. Queries are the vertices of each
  // decimated level that fall outside the next coarser level (the points
  // build_mapping falls back on), the bounds' center when it is outside the
  // mesh, and seeded points far outside the bounds in all eight directions.
  cu::Rng rng(1234);
  auto check = [&rng](const std::string& name, const cm::TriMesh& coarse,
                      std::vector<cm::Vec2> queries) {
    const cm::PointLocator locator(coarse);
    const auto box = coarse.bounds();
    const cm::Vec2 center = (box.lo + box.hi) / 2.0;
    if (!locator.try_locate(center)) queries.push_back(center);
    const double span = std::max(box.width(), box.height());
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        if (dx == 0 && dy == 0) continue;
        for (int i = 0; i < 4; ++i) {
          const double reach = span * rng.uniform(0.01, 3.0);
          const double x = dx < 0   ? box.lo.x - reach
                           : dx > 0 ? box.hi.x + reach
                                    : rng.uniform(box.lo.x, box.hi.x);
          const double y = dy < 0   ? box.lo.y - reach
                           : dy > 0 ? box.hi.y + reach
                                    : rng.uniform(box.lo.y, box.hi.y);
          queries.push_back({x, y});
        }
      }
    }
    for (const auto& p : queries) {
      const auto got = locator.locate(p);
      const auto want = nearest_by_scan(coarse, p);
      ASSERT_EQ(got.triangle, want.triangle)
          << name << " at (" << p.x << ", " << p.y << ")";
      for (int k = 0; k < 3; ++k) {
        ASSERT_EQ(got.weights[k], want.weights[k]) << name << " weight " << k;
      }
      EXPECT_FALSE(got.exact) << name;
    }
  };

  struct Case {
    const char* name;
    cm::TriMesh mesh;
  };
  const std::vector<Case> cases = {
      {"annulus", cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.15, 2)},
      {"disk", cm::make_disk_mesh(14, 64, 1.0, 0.15, 5)},
      {"rect", cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.2, 6)},
      {"airfoil", cm::make_airfoil_mesh(48, 30, 10.0, 6.0, 4.0, 3.0, 3.0, 1.2,
                                        0.1, 7)},
      {"thin_rect", cm::make_rect_mesh(200, 6, 40.0, 0.5, 0.2, 9)},
  };
  std::size_t rim_misses = 0;
  for (const auto& c : cases) {
    cm::CascadeOptions opt;
    opt.levels = 3;
    const auto cascade = cm::build_cascade(c.mesh, make_field(c.mesh), opt);
    for (std::size_t l = 0; l + 1 < cascade.level_count(); ++l) {
      const auto& fine = cascade.levels[l].mesh;
      const auto& coarse = cascade.levels[l + 1].mesh;
      const cm::PointLocator locator(coarse);
      std::vector<cm::Vec2> queries;
      for (cm::VertexId v = 0; v < fine.vertex_count(); ++v) {
        if (!locator.try_locate(fine.vertex(v))) {
          queries.push_back(fine.vertex(v));
        }
      }
      rim_misses += queries.size();
      check(std::string(c.name) + " level " + std::to_string(l + 1), coarse,
            std::move(queries));
    }
  }
  EXPECT_GT(rim_misses, 0u);

  // Bitwise ties: the frame's center is at distance exactly 1 from eight
  // triangles; the scan and the ring search must both pick the lowest id.
  const auto frame = make_square_frame();
  EXPECT_EQ(nearest_by_scan(frame, {0.0, 0.0}).triangle, 2u);
  check("square frame", frame, {});
}

// --------------------------------------------------------------- decimate --

TEST(Decimate, ReachesRequestedRatio) {
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.2, 6);
  const auto field = make_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 2.0;
  const auto result = cm::decimate(mesh, field, opt);
  EXPECT_NEAR(result.achieved_ratio, 2.0, 0.1);
  EXPECT_EQ(result.values.size(), result.mesh.vertex_count());
  expect_valid(result.mesh, "decimated rect");
}

TEST(Decimate, AggressiveRatioStaysValid) {
  const auto mesh = cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.15, 2);
  const auto field = make_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 16.0;
  const auto result = cm::decimate(mesh, field, opt);
  EXPECT_GT(result.achieved_ratio, 8.0);
  expect_valid(result.mesh, "16x annulus");
}

TEST(Decimate, PreservesValueRangeApproximately) {
  // Averaging can only contract the value range, never expand it.
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0);
  const auto field = make_field(mesh);
  const auto [lo0, hi0] = std::minmax_element(field.begin(), field.end());
  cm::DecimateOptions opt;
  opt.ratio = 4.0;
  const auto result = cm::decimate(mesh, field, opt);
  const auto [lo1, hi1] =
      std::minmax_element(result.values.begin(), result.values.end());
  EXPECT_GE(*lo1, *lo0 - 1e-12);
  EXPECT_LE(*hi1, *hi0 + 1e-12);
}

TEST(Decimate, ShortestFirstCollapsesShortEdges) {
  // After shortest-first decimation the minimum edge length should grow.
  const auto mesh = cm::make_rect_mesh(30, 30, 1.0, 1.0, 0.3, 17);
  auto min_edge = [](const cm::TriMesh& m) {
    double best = 1e300;
    for (const auto& e : m.edges()) {
      best = std::min(best, cm::distance(m.vertex(e.a), m.vertex(e.b)));
    }
    return best;
  };
  const double before = min_edge(mesh);
  cm::DecimateOptions opt;
  opt.ratio = 4.0;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  EXPECT_GT(min_edge(result.mesh), before);
}

TEST(Decimate, RatioOneIsIdentityLike) {
  const auto mesh = cm::make_rect_mesh(10, 10, 1.0, 1.0);
  cm::DecimateOptions opt;
  opt.ratio = 1.0;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  EXPECT_EQ(result.mesh.vertex_count(), mesh.vertex_count());
  EXPECT_EQ(result.collapses, 0u);
}

TEST(Decimate, FieldSizeMismatchThrows) {
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  cm::Field wrong(3, 0.0);
  EXPECT_THROW(cm::decimate(mesh, wrong, {}), canopus::Error);
}

TEST(Decimate, RandomPriorityStillValid) {
  const auto mesh = cm::make_rect_mesh(25, 25, 1.0, 1.0, 0.2, 31);
  cm::DecimateOptions opt;
  opt.ratio = 4.0;
  opt.priority = cm::EdgePriority::kRandom;
  opt.seed = 77;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  expect_valid(result.mesh, "random priority");
  EXPECT_GT(result.achieved_ratio, 3.0);
}

TEST(Decimate, GradientPriorityKeepsHighGradientRegions) {
  // Field with a sharp bump at the center: gradient-aware decimation should
  // keep more vertices near the bump than plain shortest-edge decimation.
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    const double r2 = (p.x - 0.5) * (p.x - 0.5) + (p.y - 0.5) * (p.y - 0.5);
    f[v] = std::exp(-r2 / 0.002);
  }
  auto near_bump_count = [](const cm::TriMesh& m) {
    std::size_t n = 0;
    for (cm::VertexId v = 0; v < m.vertex_count(); ++v) {
      const auto p = m.vertex(v);
      if (std::abs(p.x - 0.5) < 0.12 && std::abs(p.y - 0.5) < 0.12) ++n;
    }
    return n;
  };
  cm::DecimateOptions plain;
  plain.ratio = 6.0;
  cm::DecimateOptions grad = plain;
  grad.priority = cm::EdgePriority::kGradientWeighted;
  grad.gradient_weight = 40.0;
  const auto rp = cm::decimate(mesh, f, plain);
  const auto rg = cm::decimate(mesh, f, grad);
  EXPECT_GE(near_bump_count(rg.mesh), near_bump_count(rp.mesh));
}

namespace {

namespace reference {

// Algorithm 1 in its plainest layout: one std::vector per vertex for the
// adjacency lists, searched with std::find, a std::priority_queue, and heap
// seeding from the sorted TriMesh::edges(). The library's flat-workspace
// decimator must reproduce its collapse sequence bit for bit
// (Decimate.MatchesReferenceDecimator).
struct Workspace {
  std::vector<cm::Vec2> pos;
  std::vector<double> val;
  std::vector<bool> vertex_alive;
  std::vector<std::vector<cm::VertexId>> nbr;
  std::vector<cm::Triangle> tris;
  std::vector<bool> tri_alive;
  std::vector<std::vector<cm::TriangleId>> inc;
  std::vector<std::uint32_t> version;

  static void list_insert(std::vector<cm::VertexId>& xs, cm::VertexId v) {
    if (std::find(xs.begin(), xs.end(), v) == xs.end()) xs.push_back(v);
  }
  static void list_erase(std::vector<std::uint32_t>& xs, std::uint32_t v) {
    auto it = std::find(xs.begin(), xs.end(), v);
    if (it != xs.end()) {
      *it = xs.back();
      xs.pop_back();
    }
  }
};

struct HeapEntry {
  double priority;
  cm::VertexId a, b;
  std::uint32_t va_version, vb_version;
  bool operator<(const HeapEntry& o) const { return priority > o.priority; }
};

class Decimator {
 public:
  Decimator(const cm::TriMesh& mesh, const cm::Field& values,
            const cm::DecimateOptions& opt)
      : opt_(opt), rng_(opt.seed) {
    ws_.pos = mesh.vertices();
    ws_.val = values;
    ws_.vertex_alive.assign(ws_.pos.size(), true);
    ws_.tris = mesh.triangles();
    ws_.tri_alive.assign(ws_.tris.size(), true);
    ws_.version.assign(ws_.pos.size(), 0);
    ws_.nbr.assign(ws_.pos.size(), {});
    ws_.inc.assign(ws_.pos.size(), {});
    for (cm::TriangleId t = 0; t < ws_.tris.size(); ++t) {
      for (cm::VertexId v : ws_.tris[t].v) ws_.inc[v].push_back(t);
    }
    const auto edges = mesh.edges();
    for (const auto& e : edges) {
      ws_.nbr[e.a].push_back(e.b);
      ws_.nbr[e.b].push_back(e.a);
    }
    const auto box = mesh.bounds();
    const double diag2 = box.width() * box.width() + box.height() * box.height();
    min_area2_ = 1e-14 * diag2;
    if (opt.priority == cm::EdgePriority::kGradientWeighted) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      value_range_ = std::max(*hi - *lo, 1e-300);
    }
    for (const auto& e : edges) push_edge(e.a, e.b);
  }

  cm::DecimateResult run() {
    const std::size_t n0 = ws_.pos.size();
    const double cut_fraction_target = 1.0 - 1.0 / opt_.ratio;
    std::size_t cut = 0;
    std::size_t rejected = 0;
    while (static_cast<double>(cut) / static_cast<double>(n0) < cut_fraction_target &&
           !heap_.empty()) {
      const HeapEntry e = heap_.top();
      heap_.pop();
      if (!entry_valid(e)) continue;
      if (try_collapse(e.a, e.b)) {
        ++cut;
      } else {
        ++rejected;
      }
    }
    cm::DecimateResult r = compact();
    r.achieved_ratio =
        static_cast<double>(n0) / static_cast<double>(r.mesh.vertex_count());
    r.collapses = cut;
    r.rejected = rejected;
    return r;
  }

 private:
  double edge_priority(cm::VertexId a, cm::VertexId b) {
    const double len = cm::distance(ws_.pos[a], ws_.pos[b]);
    switch (opt_.priority) {
      case cm::EdgePriority::kShortestFirst:
        return len;
      case cm::EdgePriority::kRandom:
        return rng_.uniform();
      case cm::EdgePriority::kGradientWeighted:
        return len * (1.0 + opt_.gradient_weight *
                                std::abs(ws_.val[a] - ws_.val[b]) / value_range_);
    }
    return 0.0;
  }

  void push_edge(cm::VertexId a, cm::VertexId b) {
    heap_.push(HeapEntry{edge_priority(a, b), a, b, ws_.version[a], ws_.version[b]});
  }

  bool entry_valid(const HeapEntry& e) const {
    return ws_.vertex_alive[e.a] && ws_.vertex_alive[e.b] &&
           ws_.version[e.a] == e.va_version && ws_.version[e.b] == e.vb_version &&
           std::find(ws_.nbr[e.a].begin(), ws_.nbr[e.a].end(), e.b) !=
               ws_.nbr[e.a].end();
  }

  bool link_condition_ok(cm::VertexId i, cm::VertexId j) const {
    std::vector<cm::VertexId> opposite;
    for (cm::TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      if (tv[0] != j && tv[1] != j && tv[2] != j) continue;
      for (cm::VertexId v : tv) {
        if (v != i && v != j) opposite.push_back(v);
      }
    }
    std::size_t common = 0;
    for (cm::VertexId n : ws_.nbr[i]) {
      if (std::find(ws_.nbr[j].begin(), ws_.nbr[j].end(), n) != ws_.nbr[j].end()) {
        ++common;
        if (std::find(opposite.begin(), opposite.end(), n) == opposite.end()) {
          return false;
        }
      }
    }
    return common == opposite.size() && !opposite.empty();
  }

  bool geometry_ok(cm::VertexId i, cm::VertexId j, cm::Vec2 m) const {
    auto survives_ok = [&](cm::VertexId endpoint) {
      for (cm::TriangleId t : ws_.inc[endpoint]) {
        if (!ws_.tri_alive[t]) continue;
        const auto& tv = ws_.tris[t].v;
        const bool has_i = tv[0] == i || tv[1] == i || tv[2] == i;
        const bool has_j = tv[0] == j || tv[1] == j || tv[2] == j;
        if (has_i && has_j) continue;
        cm::Vec2 p[3];
        for (int k = 0; k < 3; ++k) {
          p[k] = (tv[k] == i || tv[k] == j) ? m : ws_.pos[tv[k]];
        }
        if (cm::signed_area2(p[0], p[1], p[2]) <= min_area2_) return false;
      }
      return true;
    };
    return survives_ok(i) && survives_ok(j);
  }

  bool try_collapse(cm::VertexId i, cm::VertexId j) {
    if (!link_condition_ok(i, j)) return false;
    const cm::Vec2 m = (ws_.pos[i] + ws_.pos[j]) * 0.5;
    if (!geometry_ok(i, j, m)) return false;
    for (cm::TriangleId t : ws_.inc[i]) {
      if (!ws_.tri_alive[t]) continue;
      const auto& tv = ws_.tris[t].v;
      if (tv[0] == j || tv[1] == j || tv[2] == j) {
        ws_.tri_alive[t] = false;
        for (cm::VertexId v : tv) {
          if (v != i) Workspace::list_erase(ws_.inc[v], t);
        }
      }
    }
    ws_.inc[i].erase(std::remove_if(ws_.inc[i].begin(), ws_.inc[i].end(),
                                    [&](cm::TriangleId t) { return !ws_.tri_alive[t]; }),
                     ws_.inc[i].end());
    for (cm::TriangleId t : ws_.inc[j]) {
      if (!ws_.tri_alive[t]) continue;
      for (cm::VertexId& v : ws_.tris[t].v) {
        if (v == j) v = i;
      }
      ws_.inc[i].push_back(t);
    }
    ws_.inc[j].clear();
    for (cm::VertexId n : ws_.nbr[j]) {
      if (n == i) continue;
      Workspace::list_erase(ws_.nbr[n], j);
      Workspace::list_insert(ws_.nbr[n], i);
      Workspace::list_insert(ws_.nbr[i], n);
    }
    Workspace::list_erase(ws_.nbr[i], j);
    ws_.nbr[j].clear();
    ws_.pos[i] = m;
    ws_.val[i] = (ws_.val[i] + ws_.val[j]) * 0.5;
    ws_.vertex_alive[j] = false;
    collapse_log_.emplace_back(i, j);
    ++ws_.version[i];
    ++ws_.version[j];
    for (cm::VertexId n : ws_.nbr[i]) push_edge(i, n);
    return true;
  }

  cm::DecimateResult compact() const {
    std::vector<cm::VertexId> remap(ws_.pos.size(), cm::kInvalidVertex);
    std::vector<cm::Vec2> vertices;
    cm::Field values;
    auto has_live_triangle = [&](cm::VertexId v) {
      for (cm::TriangleId t : ws_.inc[v]) {
        if (ws_.tri_alive[t]) return true;
      }
      return false;
    };
    std::vector<cm::VertexId> survivors;
    for (cm::VertexId v = 0; v < ws_.pos.size(); ++v) {
      if (ws_.vertex_alive[v] && has_live_triangle(v)) {
        remap[v] = static_cast<cm::VertexId>(vertices.size());
        vertices.push_back(ws_.pos[v]);
        values.push_back(ws_.val[v]);
        survivors.push_back(v);
      }
    }
    std::vector<cm::Triangle> tris;
    for (cm::TriangleId t = 0; t < ws_.tris.size(); ++t) {
      if (!ws_.tri_alive[t]) continue;
      cm::Triangle tri = ws_.tris[t];
      for (cm::VertexId& v : tri.v) v = remap[v];
      tris.push_back(tri);
    }
    cm::DecimateResult r;
    r.mesh = cm::TriMesh(std::move(vertices), std::move(tris));
    r.values = std::move(values);
    r.collapse_log = collapse_log_;
    r.survivor_slots = std::move(survivors);
    return r;
  }

  cm::DecimateOptions opt_;
  cu::Rng rng_;
  Workspace ws_;
  std::priority_queue<HeapEntry> heap_;
  std::vector<std::pair<cm::VertexId, cm::VertexId>> collapse_log_;
  double min_area2_ = 0.0;
  double value_range_ = 1.0;
};

}  // namespace reference

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

TEST(Decimate, MatchesReferenceDecimator) {
  // Exactness oracle: the flat-workspace decimator must make the same
  // collapses in the same order as the reference above, on structured meshes
  // (bulk exact length ties), jittered and shuffled ones, a disk whose centre
  // fan outgrows a vertex's inline list, a holed airfoil and a thin 80:1
  // strip, for every priority and two ratios.
  struct Case {
    std::string name;
    cm::TriMesh mesh;
  };
  std::vector<Case> cases = {
      {"rect", cm::make_rect_mesh(24, 24, 1.0, 1.0)},
      {"jittered_rect", cm::make_rect_mesh(24, 24, 1.0, 1.0, 0.3, 5)},
      {"annulus", cm::make_annulus_mesh(8, 48, 0.5, 1.0, 0.15, 2)},
      {"disk", cm::make_disk_mesh(6, 40, 1.0, 0.1, 5)},
      {"airfoil", cm::make_airfoil_mesh(32, 20, 10.0, 6.0, 4.0, 3.0, 3.0, 1.2,
                                        0.1, 7)},
      {"thin_rect", cm::make_rect_mesh(200, 6, 40.0, 0.5, 0.2, 9)},
  };
  const std::size_t unshuffled = cases.size();
  for (std::size_t c = 0; c < unshuffled; ++c) {
    cases.push_back({"shuffled_" + cases[c].name,
                     cm::shuffle_vertices(cases[c].mesh, 40 + c)});
  }
  const cm::EdgePriority priorities[] = {cm::EdgePriority::kShortestFirst,
                                         cm::EdgePriority::kRandom,
                                         cm::EdgePriority::kGradientWeighted};
  for (const auto& c : cases) {
    for (const auto priority : priorities) {
      for (const double ratio : {2.0, 4.0}) {
        const std::string ctx = c.name + " priority " +
                                std::to_string(static_cast<int>(priority)) +
                                " ratio " + std::to_string(ratio);
        cm::CascadeOptions opt;
        opt.levels = 3;
        opt.step = ratio;
        opt.decimate.priority = priority;
        std::vector<cm::DecimateResult> stats;
        const auto cascade =
            cm::build_cascade(c.mesh, make_field(c.mesh), opt, &stats);
        ASSERT_EQ(cascade.level_count(), 3u) << ctx;
        ASSERT_EQ(stats.size(), 2u) << ctx;

        cm::DecimateOptions step = opt.decimate;
        step.ratio = ratio;
        for (std::size_t l = 1; l < 3; ++l) {
          const auto& prev = cascade.levels[l - 1];
          const auto want =
              reference::Decimator(prev.mesh, prev.values, step).run();
          const auto& got = cascade.levels[l];
          const std::string at = ctx + " level " + std::to_string(l);
          ASSERT_EQ(got.mesh.vertex_count(), want.mesh.vertex_count()) << at;
          for (cm::VertexId v = 0; v < want.mesh.vertex_count(); ++v) {
            const auto p = got.mesh.vertex(v);
            const auto q = want.mesh.vertex(v);
            ASSERT_EQ(bits(p.x), bits(q.x)) << at;
            ASSERT_EQ(bits(p.y), bits(q.y)) << at;
            ASSERT_EQ(bits(got.values[v]), bits(want.values[v])) << at;
          }
          ASSERT_TRUE(got.mesh.triangles() == want.mesh.triangles()) << at;
          const auto& pass = stats[l - 1];
          EXPECT_EQ(pass.collapse_log, want.collapse_log) << at;
          EXPECT_EQ(pass.survivor_slots, want.survivor_slots) << at;
          EXPECT_EQ(pass.collapses, want.collapses) << at;
          EXPECT_EQ(pass.rejected, want.rejected) << at;
        }
      }
    }
  }
}

// ---------------------------------------------------------------- cascade --

TEST(Cascade, BuildsRequestedLevels) {
  const auto mesh = cm::make_annulus_mesh(12, 72, 0.5, 1.0, 0.1, 9);
  cm::CascadeOptions opt;
  opt.levels = 4;
  const auto cascade = cm::build_cascade(mesh, make_field(mesh), opt);
  ASSERT_EQ(cascade.level_count(), 4u);
  EXPECT_EQ(cascade.levels[0].mesh.vertex_count(), mesh.vertex_count());
  for (std::size_t l = 1; l < 4; ++l) {
    expect_valid(cascade.levels[l].mesh, "cascade level " + std::to_string(l));
    // Each level roughly halves the previous.
    const double step = static_cast<double>(cascade.levels[l - 1].mesh.vertex_count()) /
                        static_cast<double>(cascade.levels[l].mesh.vertex_count());
    EXPECT_NEAR(step, 2.0, 0.25) << "level " << l;
  }
  EXPECT_NEAR(cascade.decimation_ratio(3), 8.0, 1.5);
}

TEST(Cascade, PassStatsReported) {
  const auto mesh = cm::make_rect_mesh(20, 20, 1.0, 1.0);
  std::vector<cm::DecimateResult> stats;
  cm::CascadeOptions opt;
  opt.levels = 3;
  cm::build_cascade(mesh, make_field(mesh), opt, &stats);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_GT(stats[0].collapses, 0u);
}

TEST(Cascade, SingleLevelIsOriginal) {
  const auto mesh = cm::make_rect_mesh(5, 5, 1.0, 1.0);
  cm::CascadeOptions opt;
  opt.levels = 1;
  const auto cascade = cm::build_cascade(mesh, make_field(mesh), opt);
  EXPECT_EQ(cascade.level_count(), 1u);
  EXPECT_TRUE(cascade.base().mesh == mesh);
}

// ---------------------------------------------------------------- mesh IO --

TEST(MeshIo, OffRoundTrip) {
  namespace fs = std::filesystem;
  const auto path = (fs::temp_directory_path() / "canopus_mesh_test.off").string();
  const auto mesh = cm::make_disk_mesh(4, 16, 2.0, 0.1, 12);
  cm::save_off(mesh, path);
  const auto loaded = cm::load_off(path);
  EXPECT_EQ(loaded.vertex_count(), mesh.vertex_count());
  EXPECT_EQ(loaded.triangle_count(), mesh.triangle_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    EXPECT_NEAR(loaded.vertex(v).x, mesh.vertex(v).x, 1e-12);
  }
  std::remove(path.c_str());
}

TEST(MeshIo, LoadMissingFileThrows) {
  EXPECT_THROW(cm::load_off("/nonexistent/path.off"), canopus::Error);
}

// ---------------------------------------------------------------- quality --

#include "mesh/quality.hpp"

TEST(Quality, RightIsoscelesGridAngles) {
  // A structured rect mesh splits squares into right isosceles triangles:
  // every min angle is exactly 45 degrees, aspect ratio sqrt(2)/... bounded.
  const auto mesh = cm::make_rect_mesh(8, 8, 1.0, 1.0);
  const auto q = cm::quality_stats(mesh);
  EXPECT_NEAR(q.min_angle_deg, 45.0, 1e-9);
  EXPECT_NEAR(q.mean_min_angle_deg, 45.0, 1e-9);
  EXPECT_EQ(q.sliver_count, 0u);
  EXPECT_LT(q.max_aspect_ratio, 2.01);
}

TEST(Quality, DetectsSlivers) {
  // One nearly-degenerate triangle.
  const std::vector<cm::Vec2> verts{{0, 0}, {1, 0}, {0.5, 0.001}};
  const cm::TriMesh mesh(verts, {{{0, 1, 2}}});
  const auto q = cm::quality_stats(mesh);
  EXPECT_LT(q.min_angle_deg, 1.0);
  EXPECT_EQ(q.sliver_count, 1u);
  EXPECT_GT(q.max_aspect_ratio, 100.0);
}

TEST(Quality, DecimationKeepsAnglesBounded) {
  // The link-condition + orientation guards must prevent decimation from
  // collapsing a healthy mesh into slivers, even at a deep ratio.
  const auto mesh = cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.15, 2);
  cm::DecimateOptions opt;
  opt.ratio = 16.0;
  const auto result = cm::decimate(mesh, make_field(mesh), opt);
  const auto q = cm::quality_stats(result.mesh);
  EXPECT_GT(q.min_angle_deg, 2.0);
  EXPECT_GT(q.mean_min_angle_deg, 25.0);
  EXPECT_EQ(q.sliver_count, 0u);
}

TEST(Quality, EmptyMeshThrows) {
  const cm::TriMesh empty;
  EXPECT_THROW(cm::quality_stats(empty), canopus::Error);
}
