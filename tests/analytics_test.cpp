// Tests for the analytics module: rasterization, 8-bit quantization, blob
// detection (synthetic images with known blobs), and blob overlap metrics.
// The oracle tests hold the fast rasterizer and blob labeller to per-pixel
// reference implementations bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <string>

#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "mesh/cascade.hpp"
#include "mesh/generators.hpp"
#include "mesh/point_locator.hpp"
#include "sim/datasets.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace an = canopus::analytics;
namespace cm = canopus::mesh;
namespace cu = canopus::util;

namespace {

/// Paints gaussian bright spots onto a dark byte image.
std::vector<std::uint8_t> synthetic_image(
    std::size_t w, std::size_t h,
    const std::vector<std::tuple<double, double, double>>& spots,  // x, y, sigma
    double amplitude = 220.0, double background = 0.0) {
  std::vector<std::uint8_t> img(w * h);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      double v = background;
      for (const auto& [cx, cy, sigma] : spots) {
        const double dx = static_cast<double>(x) - cx;
        const double dy = static_cast<double>(y) - cy;
        v += amplitude * std::exp(-(dx * dx + dy * dy) / (2 * sigma * sigma));
      }
      img[y * w + x] = static_cast<std::uint8_t>(std::min(v, 255.0));
    }
  }
  return img;
}

an::BlobParams default_params() {
  an::BlobParams p;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.min_area = 20;
  return p;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The per-pixel rasterizer: one PointLocator::try_locate per pixel centre.
an::RasterField reference_rasterize(const cm::TriMesh& mesh, const cm::Field& values,
                                    std::size_t width, std::size_t height,
                                    const cm::Aabb& bounds, double background) {
  an::RasterField out;
  out.width = width;
  out.height = height;
  out.pixels.assign(width * height, background);
  out.inside.assign(width * height, false);
  const cm::PointLocator locator(mesh);
  const double dx = bounds.width() / static_cast<double>(width);
  const double dy = bounds.height() / static_cast<double>(height);
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const cm::Vec2 p{bounds.lo.x + (static_cast<double>(x) + 0.5) * dx,
                       bounds.lo.y + (static_cast<double>(y) + 0.5) * dy};
      const auto loc = locator.try_locate(p);
      if (!loc) continue;
      const auto& tri = mesh.triangle(loc->triangle);
      out.at(x, y) = values[tri.v[0]] * loc->weights[0] +
                     values[tri.v[1]] * loc->weights[1] +
                     values[tri.v[2]] * loc->weights[2];
      out.inside[y * width + x] = true;
    }
  }
  return out;
}

/// The per-pixel blob detector: two-pass 8-connected labelling of every
/// threshold slice, then the track merging of detect_blobs.
std::vector<an::Blob> reference_detect_blobs(const std::vector<std::uint8_t>& image,
                                             std::size_t width, std::size_t height,
                                             const an::BlobParams& params) {
  struct UnionFind {
    std::vector<std::uint32_t> parent;
    std::uint32_t make() {
      parent.push_back(static_cast<std::uint32_t>(parent.size()));
      return parent.back();
    }
    std::uint32_t find(std::uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    }
    void unite(std::uint32_t a, std::uint32_t b) {
      a = find(a);
      b = find(b);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  };
  const auto slice_blobs = [&](double threshold) {
    constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> label(width * height, kNone);
    UnionFind uf;
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        if (!(static_cast<double>(image[y * width + x]) > threshold)) continue;
        std::uint32_t best = kNone;
        const auto consider = [&](std::size_t nx, std::size_t ny) {
          const auto l = label[ny * width + nx];
          if (l == kNone) return;
          if (best == kNone) {
            best = l;
          } else {
            uf.unite(best, l);
          }
        };
        if (x > 0) consider(x - 1, y);
        if (y > 0) {
          consider(x, y - 1);
          if (x > 0) consider(x - 1, y - 1);
          if (x + 1 < width) consider(x + 1, y - 1);
        }
        label[y * width + x] = best == kNone ? uf.make() : best;
      }
    }
    struct Component {
      double sum_x = 0.0, sum_y = 0.0;
      std::size_t area = 0;
    };
    std::vector<Component> comps;
    std::vector<std::uint32_t> root_to_comp;
    for (std::size_t y = 0; y < height; ++y) {
      for (std::size_t x = 0; x < width; ++x) {
        const auto l = label[y * width + x];
        if (l == kNone) continue;
        const auto root = uf.find(l);
        if (root >= root_to_comp.size()) root_to_comp.resize(root + 1, kNone);
        if (root_to_comp[root] == kNone) {
          root_to_comp[root] = static_cast<std::uint32_t>(comps.size());
          comps.emplace_back();
        }
        auto& c = comps[root_to_comp[root]];
        c.sum_x += static_cast<double>(x);
        c.sum_y += static_cast<double>(y);
        ++c.area;
      }
    }
    std::vector<an::Blob> out;
    for (const auto& c : comps) {
      const auto area = static_cast<double>(c.area);
      if (area < params.min_area || area > params.max_area) continue;
      an::Blob b;
      b.center = {c.sum_x / area, c.sum_y / area};
      b.area = area;
      b.diameter = 2.0 * std::sqrt(area / std::numbers::pi);
      out.push_back(b);
    }
    return out;
  };

  struct Track {
    std::vector<an::Blob> slices;
    cm::Vec2 last_center;
  };
  std::vector<Track> tracks;
  for (double t = params.min_threshold; t < params.max_threshold;
       t += params.threshold_step) {
    for (const auto& b : slice_blobs(t)) {
      Track* best = nullptr;
      double best_d = params.min_dist_between_blobs;
      for (auto& track : tracks) {
        const double d = cm::distance(track.last_center, b.center);
        if (d < best_d) {
          best_d = d;
          best = &track;
        }
      }
      if (best) {
        best->slices.push_back(b);
        best->last_center = b.center;
      } else {
        tracks.push_back(Track{{b}, b.center});
      }
    }
  }
  std::vector<an::Blob> out;
  for (const auto& track : tracks) {
    if (track.slices.size() < params.min_repeatability) continue;
    an::Blob merged;
    for (const auto& b : track.slices) {
      merged.center += b.center;
      merged.diameter += b.diameter;
      merged.area += b.area;
    }
    const double n = static_cast<double>(track.slices.size());
    merged.center = merged.center / n;
    merged.diameter /= n;
    merged.area /= n;
    out.push_back(merged);
  }
  std::sort(out.begin(), out.end(), [](const an::Blob& a, const an::Blob& b) {
    return a.area != b.area ? a.area > b.area : a.center.x < b.center.x;
  });
  return out;
}

/// Fails unless `lattice` answers exactly like per-point try_locate, row by
/// row in order, and rasterize matches the per-pixel rasterizer bit for bit.
void expect_lattice_matches(const cm::TriMesh& mesh, const cm::Field& values,
                            std::size_t width, std::size_t height,
                            const cm::Aabb& bounds, const std::string& what) {
  SCOPED_TRACE(what + " " + std::to_string(width) + "x" + std::to_string(height));
  const cm::PointLocator locator(mesh);
  const cm::Lattice lattice{bounds.lo,
                            {bounds.width() / static_cast<double>(width),
                             bounds.height() / static_cast<double>(height)},
                            width, height};
  std::size_t next_row = 0, mismatches = 0;
  locator.locate_lattice(
      lattice, [&](std::size_t j, std::span<const std::optional<cm::Location>> row) {
        ASSERT_EQ(j, next_row++);
        ASSERT_EQ(row.size(), width);
        for (std::size_t i = 0; i < width; ++i) {
          const auto want = locator.try_locate(lattice.point(i, j));
          const bool same =
              want.has_value() == row[i].has_value() &&
              (!want || (want->triangle == row[i]->triangle &&
                         want->exact == row[i]->exact &&
                         same_bits(want->weights[0], row[i]->weights[0]) &&
                         same_bits(want->weights[1], row[i]->weights[1]) &&
                         same_bits(want->weights[2], row[i]->weights[2])));
          if (!same && mismatches++ < 5) {
            ADD_FAILURE() << "lattice point (" << i << ", " << j << ") differs";
          }
        }
      });
  EXPECT_EQ(next_row, height);
  EXPECT_EQ(mismatches, 0u);

  const auto fast = an::rasterize(mesh, values, width, height, bounds, -3.0);
  const auto ref = reference_rasterize(mesh, values, width, height, bounds, -3.0);
  ASSERT_EQ(fast.pixels.size(), ref.pixels.size());
  EXPECT_EQ(std::memcmp(fast.pixels.data(), ref.pixels.data(),
                        ref.pixels.size() * sizeof(double)),
            0);
  EXPECT_EQ(fast.inside, ref.inside);
}

/// Every raster shape of the oracle: the mesh bounds and bounds 30% larger,
/// 1 x N and N x 1 strips, and rasters coarser and finer than the locator
/// grid.
void expect_lattice_matches_all_shapes(const cm::TriMesh& mesh,
                                       const std::string& what) {
  cm::Field values(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    values[v] = std::sin(3.0 * p.x) + 0.5 * p.y;
  }
  const cm::PointLocator locator(mesh);
  const std::size_t gx = locator.grid_nx(), gy = locator.grid_ny();
  const auto b = mesh.bounds();
  cm::Aabb wide = b;
  wide.lo = {b.lo.x - 0.3 * b.width(), b.lo.y - 0.3 * b.height()};
  wide.hi = {b.hi.x + 0.3 * b.width(), b.hi.y + 0.3 * b.height()};
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 37}, {41, 1}, {1, 1}, {std::max<std::size_t>(1, gx / 3), std::max<std::size_t>(1, gy / 2)},
      {gx, gy}, {4 * gx + 1, 3 * gy + 2}, {96, 64}};
  for (const auto& [w, h] : shapes) {
    expect_lattice_matches(mesh, values, w, h, b, what + " mesh-bounds");
    expect_lattice_matches(mesh, values, w, h, wide, what + " wide-bounds");
  }
}

cm::TriMesh rotated(const cm::TriMesh& mesh, double angle) {
  std::vector<cm::Vec2> verts = mesh.vertices();
  const double c = std::cos(angle), s = std::sin(angle);
  for (auto& v : verts) v = {c * v.x - s * v.y, s * v.x + c * v.y};
  return cm::TriMesh(std::move(verts), mesh.triangles());
}

/// Every blob field bit for bit, in order.
void expect_same_blobs(const std::vector<an::Blob>& got,
                       const std::vector<an::Blob>& want, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bits(got[i].center.x, want[i].center.x) &&
                same_bits(got[i].center.y, want[i].center.y) &&
                same_bits(got[i].diameter, want[i].diameter) &&
                same_bits(got[i].area, want[i].area))
        << "blob " << i;
  }
}

}  // namespace

// --------------------------------------------------------------- raster --

TEST(Raster, LinearFieldSampledExactly) {
  const auto mesh = cm::make_rect_mesh(16, 16, 1.0, 1.0, 0.2, 4);
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = 2.0 * p.x + 3.0 * p.y;
  }
  const auto raster = an::rasterize(mesh, f, 32, 32, mesh.bounds());
  for (std::size_t y = 4; y < 28; ++y) {
    for (std::size_t x = 4; x < 28; ++x) {
      if (!raster.inside[y * 32 + x]) continue;
      const double px = (static_cast<double>(x) + 0.5) / 32.0;
      const double py = (static_cast<double>(y) + 0.5) / 32.0;
      EXPECT_NEAR(raster.at(x, y), 2.0 * px + 3.0 * py, 1e-9);
    }
  }
}

TEST(Raster, OutsidePixelsCarryBackground) {
  // Annulus: the central hole must stay at the background value.
  const auto mesh = cm::make_annulus_mesh(6, 48, 0.5, 1.0);
  const cm::Field f(mesh.vertex_count(), 7.0);
  const auto raster = an::rasterize(mesh, f, 64, 64, mesh.bounds(), -1.0);
  // Center pixel is inside the hole.
  EXPECT_FALSE(raster.inside[32 * 64 + 32]);
  EXPECT_EQ(raster.at(32, 32), -1.0);
  // Some pixel over the annulus body is inside.
  EXPECT_TRUE(raster.inside[32 * 64 + 2]);
  EXPECT_NEAR(raster.at(2, 32), 7.0, 1e-9);
}

TEST(Raster, Gray8QuantizationClampsAndScales) {
  an::RasterField f;
  f.width = 3;
  f.height = 1;
  f.pixels = {-5.0, 0.5, 99.0};
  f.inside = {true, true, true};
  const auto g = an::to_gray8(f, 0.0, 1.0);
  EXPECT_EQ(g[0], 0);
  EXPECT_EQ(g[1], 128);
  EXPECT_EQ(g[2], 255);
}

TEST(Raster, SizeMismatchThrows) {
  const auto mesh = cm::make_rect_mesh(4, 4, 1.0, 1.0);
  cm::Field wrong(3, 0.0);
  EXPECT_THROW(an::rasterize(mesh, wrong, 8, 8, mesh.bounds()), canopus::Error);
}

TEST(Raster, LatticeMatchesPerPointTryLocate) {
  // XGC1 cascade levels: jittered, shuffled, rim shrunk by decimation.
  canopus::sim::XgcOptions xopt;
  xopt.rings = 16;
  xopt.sectors = 80;
  const auto ds = canopus::sim::make_xgc_dataset(xopt);
  cm::CascadeOptions copt;
  copt.levels = 3;
  const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
  for (std::size_t l = 0; l < cascade.level_count(); ++l) {
    expect_lattice_matches_all_shapes(cascade.levels[l].mesh,
                                      "xgc L" + std::to_string(l));
  }
  // XGC L0 at the L0 bounds with the base level's raster size, as analyzed.
  expect_lattice_matches(cascade.base().mesh, cascade.base().values, 120, 120,
                         ds.mesh.bounds(), "xgc base at L0 bounds");

  // Structured unit cells: pixel centres land exactly on vertices (1 px per
  // cell), edge midpoints and both diagonal families (2 and 4 px per cell).
  const auto rect = cm::make_rect_mesh(8, 8, 8.0, 8.0);
  cm::Field rect_values(rect.vertex_count());
  for (cm::VertexId v = 0; v < rect.vertex_count(); ++v) {
    rect_values[v] = rect.vertex(v).x * 7.0 - rect.vertex(v).y;
  }
  const cm::Aabb ties{{-0.5, -0.5}, {8.5, 8.5}};
  for (std::size_t px : {9u, 18u, 36u}) {
    expect_lattice_matches(rect, rect_values, px, px, ties, "rect ties");
  }
  expect_lattice_matches_all_shapes(rect, "rect");

  expect_lattice_matches_all_shapes(cm::make_annulus_mesh(6, 48, 0.5, 1.0),
                                    "annulus");

  // Zero-area triangles: barycentric answers (1, 0, 0) for them, so they
  // claim every point of their cells that no lower id took.
  {
    const auto grid = cm::make_rect_mesh(4, 4, 4.0, 4.0);
    auto tris = grid.triangles();
    auto at = [](cm::VertexId i, cm::VertexId j) { return j * 5 + i; };
    tris.insert(tris.begin(), cm::Triangle{{at(0, 0), at(1, 1), at(2, 2)}});
    tris.insert(tris.begin() + 9, cm::Triangle{{at(4, 0), at(3, 1), at(1, 3)}});
    expect_lattice_matches_all_shapes(cm::TriMesh(grid.vertices(), tris),
                                      "zero-area");
  }

  // 80:1 slivers, axis-aligned and rotated; rotated 10^4:1 slivers are too
  // thin for the pruning bound and scan their whole cell range.
  const auto sliver = cm::make_rect_mesh(10, 40, 10.0, 0.5);
  expect_lattice_matches_all_shapes(sliver, "sliver");
  expect_lattice_matches_all_shapes(rotated(sliver, 0.5), "rotated sliver");
  expect_lattice_matches_all_shapes(
      rotated(cm::make_rect_mesh(3, 3, 4.0, 4e-4), 0.5), "rotated thin sliver");

  // Lattices whose x does not ascend, or does not move at all.
  const auto annulus = cm::make_annulus_mesh(4, 24, 0.4, 1.0, 0.1, 3);
  const cm::PointLocator locator(annulus);
  for (const cm::Lattice lattice :
       {cm::Lattice{{1.1, 1.05}, {-0.05, -0.07}, 44, 30},
        cm::Lattice{{0.3, -1.0}, {0.0, 0.09}, 5, 23}}) {
    std::size_t mismatches = 0;
    locator.locate_lattice(
        lattice, [&](std::size_t j, std::span<const std::optional<cm::Location>> row) {
          for (std::size_t i = 0; i < row.size(); ++i) {
            const auto want = locator.try_locate(lattice.point(i, j));
            if (want.has_value() != row[i].has_value() ||
                (want && (want->triangle != row[i]->triangle ||
                          !same_bits(want->weights[0], row[i]->weights[0])))) {
              ++mismatches;
            }
          }
        });
    EXPECT_EQ(mismatches, 0u);
  }
}

// ----------------------------------------------------------------- blobs --

TEST(Blob, FindsIsolatedSpots) {
  const auto img = synthetic_image(200, 200,
                                   {{50, 50, 8}, {150, 60, 10}, {100, 150, 7}});
  const auto blobs = an::detect_blobs(img, 200, 200, default_params());
  EXPECT_EQ(blobs.size(), 3u);
}

TEST(Blob, CentersAreAccurate) {
  const auto img = synthetic_image(120, 120, {{40.0, 70.0, 6.0}});
  const auto blobs = an::detect_blobs(img, 120, 120, default_params());
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].center.x, 40.0, 1.5);
  EXPECT_NEAR(blobs[0].center.y, 70.0, 1.5);
  EXPECT_GT(blobs[0].diameter, 5.0);
  EXPECT_GT(blobs[0].area, default_params().min_area);
}

TEST(Blob, EmptyImageHasNoBlobs) {
  const std::vector<std::uint8_t> img(100 * 100, 0);
  EXPECT_TRUE(an::detect_blobs(img, 100, 100, default_params()).empty());
}

TEST(Blob, MinAreaFiltersSmallSpots) {
  // sigma 1.5 spot: even at the lowest threshold its bright area stays
  // below ~45 px^2, so min_area = 60 must reject it at every slice.
  const auto img = synthetic_image(200, 200, {{60, 60, 12}, {150, 150, 1.5}});
  auto params = default_params();
  params.min_area = 60;
  const auto blobs = an::detect_blobs(img, 200, 200, params);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].center.x, 60.0, 2.0);
}

TEST(Blob, HigherMinThresholdDropsFaintBlobs) {
  // One bright and one faint spot; Config2's high minThreshold (150) must
  // drop the faint one while Config1 (10) keeps both.
  auto img = synthetic_image(200, 200, {{60, 60, 9}});
  const auto faint = synthetic_image(200, 200, {{150, 150, 9}}, 100.0);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<std::uint8_t>(
        std::min<int>(255, img[i] + faint[i]));
  }
  auto config1 = default_params();
  config1.min_threshold = 10;
  auto config2 = default_params();
  config2.min_threshold = 150;
  EXPECT_EQ(an::detect_blobs(img, 200, 200, config1).size(), 2u);
  EXPECT_EQ(an::detect_blobs(img, 200, 200, config2).size(), 1u);
}

TEST(Blob, TouchingBlobsMergeWhenClose) {
  // Two overlapping gaussians closer than minDistBetweenBlobs act as one.
  const auto img = synthetic_image(200, 200, {{100, 100, 8}, {106, 100, 8}});
  auto params = default_params();
  params.min_dist_between_blobs = 15.0;
  const auto blobs = an::detect_blobs(img, 200, 200, params);
  EXPECT_EQ(blobs.size(), 1u);
}

TEST(Blob, DiagonalConnectivityIsOneComponent) {
  // A diagonal line of bright pixels: 8-connectivity -> one component.
  std::vector<std::uint8_t> img(64 * 64, 0);
  for (std::size_t i = 10; i < 40; ++i) img[i * 64 + i] = 255;
  an::BlobParams p;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.min_area = 5;
  p.min_repeatability = 2;
  const auto blobs = an::detect_blobs(img, 64, 64, p);
  EXPECT_EQ(blobs.size(), 1u);
}

TEST(Blob, SummarizeAggregates) {
  std::vector<an::Blob> blobs(3);
  blobs[0].diameter = 10;
  blobs[0].area = 100;
  blobs[1].diameter = 20;
  blobs[1].area = 300;
  blobs[2].diameter = 30;
  blobs[2].area = 500;
  const auto s = an::summarize(blobs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean_diameter, 20.0);
  EXPECT_DOUBLE_EQ(s.aggregate_area, 900.0);
  const auto empty = an::summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.mean_diameter, 0.0);
}

TEST(Blob, OverlapRatioDefinition) {
  an::Blob a;  // at origin, radius 5
  a.center = {0, 0};
  a.diameter = 10;
  an::Blob b = a;  // 8 px away: 8 < 5 + 5 -> overlaps
  b.center = {8, 0};
  an::Blob c = a;  // 20 px away: no overlap
  c.center = {20, 0};
  EXPECT_DOUBLE_EQ(an::overlap_ratio({b}, {a}), 1.0);
  EXPECT_DOUBLE_EQ(an::overlap_ratio({c}, {a}), 0.0);
  EXPECT_DOUBLE_EQ(an::overlap_ratio({b, c}, {a}), 0.5);
  EXPECT_DOUBLE_EQ(an::overlap_ratio({}, {a}), 1.0);
}

TEST(Blob, DetectionIsDeterministic) {
  cu::Rng rng(5);
  std::vector<std::tuple<double, double, double>> spots;
  for (int i = 0; i < 5; ++i) {
    spots.emplace_back(rng.uniform(20, 180), rng.uniform(20, 180),
                       rng.uniform(5, 10));
  }
  const auto img = synthetic_image(200, 200, spots);
  const auto a = an::detect_blobs(img, 200, 200, default_params());
  const auto b = an::detect_blobs(img, 200, 200, default_params());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].center.x, b[i].center.x);
    EXPECT_EQ(a[i].area, b[i].area);
  }
}

// -------------------------------------------------- parameterized configs --

// Sweep the paper's three configs over a fixed synthetic scene and verify
// the monotone relationships between their parameters and the results.
class BlobConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(BlobConfigSweep, DetectsConsistently) {
  const auto img = synthetic_image(
      240, 240, {{60, 60, 10}, {180, 60, 7}, {60, 180, 5}, {180, 180, 12}});
  an::BlobParams p;
  p.threshold_step = 10;
  switch (GetParam()) {
    case 1: p.min_threshold = 10;  p.max_threshold = 200; p.min_area = 100; break;
    case 2: p.min_threshold = 150; p.max_threshold = 200; p.min_area = 100; break;
    case 3: p.min_threshold = 10;  p.max_threshold = 200; p.min_area = 200; break;
  }
  const auto blobs = an::detect_blobs(img, 240, 240, p);
  // Config1 is the most permissive: it must find at least as many blobs as
  // the stricter variants.
  an::BlobParams base;
  base.min_threshold = 10;
  base.max_threshold = 200;
  base.min_area = 100;
  const auto baseline = an::detect_blobs(img, 240, 240, base);
  EXPECT_LE(blobs.size(), baseline.size());
  // Everything any config finds overlaps the permissive set.
  EXPECT_DOUBLE_EQ(an::overlap_ratio(blobs, baseline), 1.0);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, BlobConfigSweep,
                         ::testing::Values(1, 2, 3),
                         [](const auto& param_info) {
                           return "Config" + std::to_string(param_info.param);
                         });

TEST(Blob, ThresholdStepGranularityTradesRepeatability) {
  const auto img = synthetic_image(200, 200, {{100, 100, 9}});
  an::BlobParams coarse = default_params();
  coarse.threshold_step = 60;  // few slices
  an::BlobParams fine = default_params();
  fine.threshold_step = 5;  // many slices
  const auto cb = an::detect_blobs(img, 200, 200, coarse);
  const auto fb = an::detect_blobs(img, 200, 200, fine);
  // Both find the blob; the fine sweep averages over more slices.
  ASSERT_EQ(cb.size(), 1u);
  ASSERT_EQ(fb.size(), 1u);
  EXPECT_NEAR(cb[0].center.x, fb[0].center.x, 3.0);
}

TEST(Blob, MaxAreaFilterDropsGiants) {
  const auto img = synthetic_image(200, 200, {{100, 100, 25}, {30, 30, 4}});
  auto p = default_params();
  p.max_area = 400;  // the sigma-25 blob covers thousands of px
  const auto blobs = an::detect_blobs(img, 200, 200, p);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_NEAR(blobs[0].center.x, 30.0, 3.0);
}

TEST(Blob, MatchesPerPixelSliceDetector) {
  struct Image {
    std::string name;
    std::size_t w, h;
    std::vector<std::uint8_t> px;
  };
  std::vector<Image> images;
  cu::Rng rng(canopus::test::test_seed() * 7919 + 17);
  for (int k = 0; k < 3; ++k) {
    std::vector<std::uint8_t> noise(64 * 48);
    for (auto& v : noise) v = static_cast<std::uint8_t>(rng.next_u64());
    images.push_back({"noise" + std::to_string(k), 64, 48, noise});
    std::vector<std::tuple<double, double, double>> spots;
    for (int i = 0; i < 7; ++i) {
      spots.emplace_back(rng.uniform(0, 160), rng.uniform(0, 120), rng.uniform(2, 14));
    }
    images.push_back({"spots" + std::to_string(k), 160, 120,
                      synthetic_image(160, 120, spots, rng.uniform(120, 260))});
  }
  const auto canvas = [](std::size_t w, std::size_t h, auto lit) {
    std::vector<std::uint8_t> px(w * h, 0);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        px[y * w + x] = lit(x, y);
      }
    }
    return px;
  };
  // Diagonal-only chains in both directions and checkerboards: connected
  // only through 8-neighbours.
  images.push_back({"diagonals", 40, 30, canvas(40, 30, [](std::size_t x, std::size_t y) {
                      return static_cast<std::uint8_t>(
                          (x + y) % 9 == 0 || (x + 30 - y) % 11 == 0 ? 200 : 0);
                    })});
  images.push_back({"checker", 33, 21, canvas(33, 21, [](std::size_t x, std::size_t y) {
                      return static_cast<std::uint8_t>((x + y) % 2 ? 180 : 20);
                    })});
  images.push_back({"checker2x2", 32, 32, canvas(32, 32, [](std::size_t x, std::size_t y) {
                      return static_cast<std::uint8_t>((x / 2 + y / 2) % 2 ? 250 : 0);
                    })});
  // U and W shapes: arms that are separate components until a late row
  // joins them, with intensities graded so slices differ.
  images.push_back({"U", 50, 40, canvas(50, 40, [](std::size_t x, std::size_t y) {
                      const bool arm = (x >= 5 && x < 12) || (x >= 38 && x < 45);
                      const bool base = y >= 30 && y < 35 && x >= 5 && x < 45;
                      return static_cast<std::uint8_t>(
                          (arm && y >= 3 && y < 35) || base ? 40 + 5 * y : 0);
                    })});
  images.push_back({"W", 60, 40, canvas(60, 40, [](std::size_t x, std::size_t y) {
                      const bool arm = x % 14 < 4 && x < 46;
                      const bool base = y >= 34 && y < 37 && x < 46;
                      const bool bridge = y == 20 && x >= 28 && x < 46;
                      return static_cast<std::uint8_t>(
                          (arm && y >= 2 && y < 37) || base || bridge ? 255 - 4 * y : 0);
                    })});
  images.push_back({"all-bright", 30, 20, std::vector<std::uint8_t>(600, 255)});
  images.push_back({"all-dark", 30, 20, std::vector<std::uint8_t>(600, 0)});
  {
    std::vector<std::uint8_t> row(97), col(83);
    for (auto& v : row) v = static_cast<std::uint8_t>(rng.next_u64() % 4 * 80);
    for (auto& v : col) v = static_cast<std::uint8_t>(rng.next_u64() % 4 * 80);
    images.push_back({"row", 97, 1, row});
    images.push_back({"column", 1, 83, col});
  }

  std::vector<std::pair<std::string, an::BlobParams>> configs;
  const auto config = [&](std::string name, double lo, double hi, double step,
                          double min_area, double max_area, std::size_t rep) {
    an::BlobParams p;
    p.min_threshold = lo;
    p.max_threshold = hi;
    p.threshold_step = step;
    p.min_area = min_area;
    p.max_area = max_area;
    p.min_repeatability = rep;
    p.min_dist_between_blobs = 6.0;
    configs.emplace_back(std::move(name), p);
  };
  config("integer", 10, 200, 10, 1, 1e9, 1);
  config("fractional", 12.5, 230, 7.3, 2, 1e9, 2);
  config("below-zero", -20, 100, 30, 1, 1e9, 1);
  config("above-255", 100, 400, 60, 1, 1e9, 1);
  config("max-area", 5, 250, 20, 3, 40, 1);

  for (const auto& img : images) {
    for (const auto& [cname, params] : configs) {
      expect_same_blobs(an::detect_blobs(img.px, img.w, img.h, params),
                        reference_detect_blobs(img.px, img.w, img.h, params),
                        img.name + " / " + cname);
    }
  }
}

TEST(Analytics, XgcBaseAnswerPinned) {
  // The analysis workload's base answer in miniature: the base level of a
  // 4-level XGC1 cascade rasterized at 360 px over the L0 bounds, quantized
  // against [0, max dpot] and blob-detected with configuration 1. FNV-1a over
  // the raster pixels, the inside mask and every blob field, compared with a
  // constant from the per-pixel rasterizer and labeller. Assumes IEEE double
  // arithmetic without floating-point contraction, the x86-64 default.
  canopus::sim::XgcOptions xopt;
  xopt.rings = 40;
  xopt.sectors = 200;
  const auto ds = canopus::sim::make_xgc_dataset(xopt);
  cm::CascadeOptions copt;
  copt.levels = 4;
  const auto cascade = cm::build_cascade(ds.mesh, ds.values, copt);
  const auto& base = cascade.base();
  constexpr std::size_t kPx = 360;
  const auto raster =
      an::rasterize(base.mesh, base.values, kPx, kPx, ds.mesh.bounds());
  const double hi = *std::max_element(ds.values.begin(), ds.values.end());
  an::BlobParams params;
  params.threshold_step = 10;
  params.min_threshold = 10;
  params.max_threshold = 200;
  params.min_area = 100;
  const auto blobs =
      an::detect_blobs(an::to_gray8(raster, 0.0, hi), kPx, kPx, params);
  ASSERT_GT(blobs.size(), 3u);

  std::uint64_t hash = 0xcbf29ce484222325ull;
  auto mix = [&hash](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) hash = (hash ^ p[i]) * 0x100000001b3ull;
  };
  mix(raster.pixels.data(), raster.pixels.size() * sizeof(double));
  for (std::size_t i = 0; i < raster.inside.size(); ++i) {
    const unsigned char in = raster.inside[i] ? 1 : 0;
    mix(&in, 1);
  }
  for (const auto& b : blobs) {
    for (const double v : {b.center.x, b.center.y, b.diameter, b.area}) {
      mix(&v, sizeof v);
    }
  }
  EXPECT_EQ(hash, 0x0688db2fcafbad10ull) << std::hex << "0x" << hash << std::dec << " over "
                          << blobs.size() << " blobs";
}

TEST(Blob, AnnotationDrawsRingAroundBlob) {
  std::vector<std::uint8_t> img(100 * 100, 0);
  an::Blob b;
  b.center = {50, 50};
  b.diameter = 20;
  an::annotate_blobs(img, 100, 100, {b}, 255, 2.0);
  // Pixels on the ring (radius 12) are lit; center and far corner are not.
  EXPECT_EQ(img[50 * 100 + 62], 255);  // (62, 50): center + r on the x axis
  EXPECT_EQ(img[50 * 100 + 50], 0);
  EXPECT_EQ(img[0], 0);
  // Ring partially off-image must not crash or wrap.
  an::Blob edge;
  edge.center = {1, 1};
  edge.diameter = 30;
  an::annotate_blobs(img, 100, 100, {edge});
  EXPECT_EQ(img.size(), 100u * 100u);
}
