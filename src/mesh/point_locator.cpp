#include "mesh/point_locator.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/assert.hpp"

namespace canopus::mesh {

namespace {
constexpr TriangleId kNoTriangle = static_cast<TriangleId>(-1);
}  // namespace

PointLocator::PointLocator(const TriMesh& mesh, double cells_per_triangle)
    : mesh_(mesh) {
  CANOPUS_CHECK(mesh.triangle_count() > 0, "cannot index an empty mesh");
  bounds_ = mesh.bounds();
  const double target =
      std::max(1.0, cells_per_triangle * static_cast<double>(mesh.triangle_count()));
  const double aspect = std::max(bounds_.width(), 1e-300) /
                        std::max(bounds_.height(), 1e-300);
  ny_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::sqrt(target / aspect)));
  nx_ = std::max<std::size_t>(1, static_cast<std::size_t>(target / static_cast<double>(ny_)));
  inv_dx_ = bounds_.width() > 0.0 ? static_cast<double>(nx_) / bounds_.width() : 0.0;
  inv_dy_ = bounds_.height() > 0.0 ? static_cast<double>(ny_) / bounds_.height() : 0.0;

  // Compressed rows: count each cell's triangles, prefix-sum the counts into
  // offsets, then fill in ascending triangle order, so every cell lists its
  // triangles in one contiguous, sorted run.
  struct CellRange {
    std::size_t x0, y0, x1, y1;
  };
  const auto& verts = mesh.vertices();
  std::vector<CellRange> ranges(mesh.triangle_count());
  cell_start_.assign(nx_ * ny_ + 1, 0);
  for (TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    const auto& tri = mesh.triangle(t);
    Aabb box;
    box.lo = box.hi = verts[tri.v[0]];
    box.expand(verts[tri.v[1]]);
    box.expand(verts[tri.v[2]]);
    const auto c0 = cell_of(box.lo);
    const auto c1 = cell_of(box.hi);
    const CellRange r{c0 % nx_, c0 / nx_, c1 % nx_, c1 / nx_};
    ranges[t] = r;
    for (std::size_t y = r.y0; y <= r.y1; ++y) {
      for (std::size_t x = r.x0; x <= r.x1; ++x) ++cell_start_[y * nx_ + x + 1];
    }
  }
  for (std::size_t c = 0; c < nx_ * ny_; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_tris_.resize(cell_start_.back());
  std::vector<std::size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    const auto& r = ranges[t];
    for (std::size_t y = r.y0; y <= r.y1; ++y) {
      for (std::size_t x = r.x0; x <= r.x1; ++x) cell_tris_[fill[y * nx_ + x]++] = t;
    }
  }
}

std::span<const TriangleId> PointLocator::cell(std::size_t c) const {
  return {cell_tris_.data() + cell_start_[c], cell_start_[c + 1] - cell_start_[c]};
}

std::size_t PointLocator::cell_of(Vec2 p) const {
  auto clampi = [](double v, std::size_t n) {
    if (v < 0.0) return std::size_t{0};
    const auto i = static_cast<std::size_t>(v);
    return std::min(i, n - 1);
  };
  const std::size_t x = clampi((p.x - bounds_.lo.x) * inv_dx_, nx_);
  const std::size_t y = clampi((p.y - bounds_.lo.y) * inv_dy_, ny_);
  return y * nx_ + x;
}

std::optional<Location> PointLocator::try_locate(Vec2 p) const {
  const auto& verts = mesh_.vertices();
  for (TriangleId t : cell(cell_of(p))) {
    const auto& tri = mesh_.triangle(t);
    const auto w = barycentric(p, verts[tri.v[0]], verts[tri.v[1]], verts[tri.v[2]]);
    constexpr double eps = 1e-10;
    if (w[0] >= -eps && w[1] >= -eps && w[2] >= -eps) {
      return Location{t, w, true};
    }
  }
  return std::nullopt;
}

Location PointLocator::locate(Vec2 p) const {
  if (const auto hit = try_locate(p)) return *hit;
  return nearest_fallback(p);
}

Location PointLocator::nearest_fallback(Vec2 p) const {
  // The triangle whose clamped barycentric projection of p is nearest, ties
  // to the lowest id: exactly what a scan over every triangle returns, found
  // by visiting grid cells in Chebyshev rings r = 0, 1, 2, ... around p's
  // (clamped) cell. Every projection lies inside its triangle, and a
  // triangle not met after rings 0..r-1 has its whole bounding box in cells
  // at least r away on some axis, so its projection is at least about
  // (r-1) cells from p. Stopping once (r-2)·min(dx, dy) exceeds the best
  // distance keeps a full cell of slack for the rounding in cell_of() and
  // in the projection. Zero-size bounds give a zero bound: every ring is
  // visited.
  const auto& verts = mesh_.vertices();
  Location best;
  double best_d2 = std::numeric_limits<double>::infinity();
  std::vector<bool> seen(mesh_.triangle_count(), false);  // per call: const-safe
  auto consider = [&](TriangleId t) {
    if (seen[t]) return;
    seen[t] = true;
    const auto& tri = mesh_.triangle(t);
    const Vec2 a = verts[tri.v[0]], b = verts[tri.v[1]], c = verts[tri.v[2]];
    auto w = barycentric(p, a, b, c);
    // Clamp negative weights to zero and renormalize: projects p into the
    // triangle along barycentric axes (adequate for near-boundary points).
    for (double& wi : w) wi = std::max(0.0, wi);
    const double sum = w[0] + w[1] + w[2];
    if (sum <= 0.0) return;
    for (double& wi : w) wi /= sum;
    const Vec2 proj = a * w[0] + b * w[1] + c * w[2];
    const double d2 = (proj - p).norm2();
    // Like the scan's strict `<`, an infinite or NaN d2 never wins.
    const bool tie = d2 == best_d2 && best.triangle != kNoTriangle &&
                     t < best.triangle;
    if (d2 < best_d2 || tie) {
      best_d2 = d2;
      best = Location{t, w, false};
    }
  };
  auto visit = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
    for (TriangleId t : cell(static_cast<std::size_t>(y) * nx_ +
                             static_cast<std::size_t>(x))) {
      consider(t);
    }
  };

  const std::size_t c = cell_of(p);
  const auto cx = static_cast<std::ptrdiff_t>(c % nx_);
  const auto cy = static_cast<std::ptrdiff_t>(c / nx_);
  const auto nx = static_cast<std::ptrdiff_t>(nx_);
  const auto ny = static_cast<std::ptrdiff_t>(ny_);
  const double dx = inv_dx_ > 0.0 ? 1.0 / inv_dx_ : 0.0;
  const double dy = inv_dy_ > 0.0 ? 1.0 / inv_dy_ : 0.0;
  const double cell_size = std::min(dx, dy);
  const std::ptrdiff_t last_ring =
      std::max(std::max(cx, nx - 1 - cx), std::max(cy, ny - 1 - cy));
  for (std::ptrdiff_t r = 0; r <= last_ring; ++r) {
    const double gap = static_cast<double>(r - 2) * cell_size;
    if (r > 2 && gap * gap > best_d2) break;
    const std::ptrdiff_t x0 = std::max<std::ptrdiff_t>(cx - r, 0);
    const std::ptrdiff_t x1 = std::min(cx + r, nx - 1);
    // Bottom and top rows of the ring, then its left and right columns
    // without their corners.
    if (cy - r >= 0) {
      for (std::ptrdiff_t x = x0; x <= x1; ++x) visit(x, cy - r);
    }
    if (r > 0 && cy + r < ny) {
      for (std::ptrdiff_t x = x0; x <= x1; ++x) visit(x, cy + r);
    }
    if (r == 0) continue;
    const std::ptrdiff_t y0 = std::max<std::ptrdiff_t>(cy - r + 1, 0);
    const std::ptrdiff_t y1 = std::min(cy + r - 1, ny - 1);
    for (std::ptrdiff_t y = y0; y <= y1; ++y) {
      if (cx - r >= 0) visit(cx - r, y);
      if (cx + r < nx) visit(cx + r, y);
    }
  }
  CANOPUS_CHECK(best.triangle != kNoTriangle,
                "point location failed: mesh fully degenerate");
  return best;
}

}  // namespace canopus::mesh
