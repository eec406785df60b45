#include "mesh/point_locator.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/assert.hpp"

namespace canopus::mesh {

namespace {
constexpr TriangleId kNoTriangle = static_cast<TriangleId>(-1);

/// try_locate's slack on each barycentric weight: shared edges and vertices
/// belong to every triangle meeting there, the lowest id wins.
constexpr double kInsideEps = 1e-10;

/// Ranges this many lattice columns wide or narrower test every column of a
/// row the triangle spans: cheaper than computing the row's x-interval.
constexpr std::size_t kNarrowRange = 6;

/// About this many lattice rows make one band of locate_lattice.
constexpr std::size_t kBandRows = 16;

bool inside(const std::array<double, 3>& w) {
  return w[0] >= -kInsideEps && w[1] >= -kInsideEps && w[2] >= -kInsideEps;
}

/// Grid index of scaled coordinate v in [0, n): truncates, clamps outside.
std::size_t axis_cell(double v, std::size_t n) {
  if (v < 0.0) return 0;
  return std::min(static_cast<std::size_t>(v), n - 1);
}

/// Conservative pruning for one triangle of locate_lattice's walk: which
/// lattice rows, and which x-range of a row, can hold a passing point. The
/// bounds are derived above locate_lattice.
class TrianglePruner {
 public:
  /// Nothing for degenerate triangles (barycentric's (1, 0, 0) passes
  /// everywhere) and for triangles whose rounding bound over the candidate
  /// box `cand` exceeds the tolerance (slivers, far candidates): those test
  /// their whole cell range. `intervals` prepares row().
  static std::optional<TrianglePruner> make(Vec2 a, Vec2 b, Vec2 c, const Aabb& cand,
                                       bool intervals) {
    constexpr double u = std::numeric_limits<double>::epsilon() / 2;
    const double d = signed_area2(a, b, c);
    const double inv_d = 1.0 / std::abs(d);
    Aabb tri;
    tri.lo = tri.hi = a;
    tri.expand(b);
    tri.expand(c);
    Aabb all = tri;
    all.expand(cand.lo);
    all.expand(cand.hi);
    const double p = 2.0 * all.width() * all.height() * inv_d;
    const double q = 2.0 * tri.width() * tri.height() * inv_d;
    const double delta = 32.0 * u * (p * (1.0 + q) + 1.0);
    if (!(inv_d <= 1e280 && delta <= kInsideEps)) return std::nullopt;
    const double mag = std::max(std::max(std::abs(all.lo.x), std::abs(all.lo.y)),
                                std::max(std::abs(all.hi.x), std::abs(all.hi.y)));
    TrianglePruner out;
    out.inv_d_ = std::copysign(inv_d, d);
    out.reach_ = 4.0 * (kInsideEps + delta) * (tri.width() + tri.height()) +
                 32.0 * u * mag;
    out.lo_y_ = tri.lo.y;
    out.hi_y_ = tri.hi.y;
    if (intervals) {
      if (b.y < a.y) std::swap(a, b);
      if (c.y < b.y) std::swap(b, c);
      if (b.y < a.y) std::swap(a, b);
      out.v_ = {a, b, c};
      // A non-degenerate triangle has c.y > a.y; a flat edge never divides.
      out.inv_h_ = {1.0 / (c.y - a.y), b.y > a.y ? 1.0 / (b.y - a.y) : 0.0,
                    c.y > b.y ? 1.0 / (c.y - b.y) : 0.0};
    }
    return out;
  }

  /// True only when barycentric(p, a, b, c) fails the containment test
  /// ((a, b, c) as passed to make): the same cross products, scaled by the
  /// reciprocal of the area instead of divided by it.
  bool rejects(Vec2 p, Vec2 a, Vec2 b, Vec2 c) const {
    constexpr double u = std::numeric_limits<double>::epsilon() / 2;
    constexpr double kReject = kInsideEps * (1.0 + 1e-9);
    const double wa = signed_area2(p, b, c) * inv_d_;
    const double wb = signed_area2(a, p, c) * inv_d_;
    if (wa < -kReject || wb < -kReject) return true;
    return (1.0 - wa) - wb + 16.0 * u * (1.0 + std::abs(wa) + std::abs(wb)) <
           -kInsideEps;
  }

  /// False when no point at height y can pass.
  bool spans(double y) const {
    return y + reach_ >= lo_y_ && y - reach_ <= hi_y_;
  }

  /// The x-range [xl, xr] every passing point at height y lies in, for a y
  /// that spans(): the triangle's extent between heights y - reach and
  /// y + reach, widened by reach. Needs make(..., intervals = true).
  void row(double y, double& xl, double& xr) const {
    const auto& [v0, v1, v2] = v_;
    const double y_lo = std::max(y - reach_, v0.y);
    const double y_hi = std::min(y + reach_, v2.y);
    // Where edge pq (p.y < q.y, inv = 1 / (q.y - p.y)) crosses h.
    const auto edge_x = [](Vec2 p, Vec2 q, double inv, double h) {
      return p.x + std::clamp((h - p.y) * inv, 0.0, 1.0) * (q.x - p.x);
    };
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    const auto add = [&](double x) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    };
    const auto chord = [&](double h) {  // cross-section at h in [v0.y, v2.y]
      add(edge_x(v0, v2, inv_h_[0], h));
      if (h < v1.y) {
        add(edge_x(v0, v1, inv_h_[1], h));
      } else if (v2.y > v1.y) {
        add(edge_x(v1, v2, inv_h_[2], h));
      }
    };
    chord(y_lo);
    chord(y_hi);
    if (v1.y >= y_lo && v1.y <= y_hi) add(v1.x);
    xl = lo - reach_;
    xr = hi + reach_;
  }

 private:
  double lo_y_ = 0.0, hi_y_ = 0.0;  // the triangle's height range
  std::array<Vec2, 3> v_;          // ascending y
  std::array<double, 3> inv_h_{};  // 1 / height of edges 02, 01, 12
  double inv_d_ = 0.0;             // 1 / signed_area2(a, b, c)
  double reach_ = 0.0;
};
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
  const auto& verts = mesh.vertices();
  ranges_.resize(mesh.triangle_count());
  cell_start_.assign(nx_ * ny_ + 1, 0);
  for (TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    const auto& tri = mesh.triangle(t);
    Aabb box;
    box.lo = box.hi = verts[tri.v[0]];
    box.expand(verts[tri.v[1]]);
    box.expand(verts[tri.v[2]]);
    const CellRange r{static_cast<std::uint32_t>(cell_x(box.lo.x)),
                      static_cast<std::uint32_t>(cell_y(box.lo.y)),
                      static_cast<std::uint32_t>(cell_x(box.hi.x)),
                      static_cast<std::uint32_t>(cell_y(box.hi.y))};
    ranges_[t] = r;
    for (std::size_t y = r.y0; y <= r.y1; ++y) {
      for (std::size_t x = r.x0; x <= r.x1; ++x) ++cell_start_[y * nx_ + x + 1];
    }
  }
  for (std::size_t c = 0; c < nx_ * ny_; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_tris_.resize(cell_start_.back());
  std::vector<std::size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (TriangleId t = 0; t < mesh.triangle_count(); ++t) {
    const auto& r = ranges_[t];
    for (std::size_t y = r.y0; y <= r.y1; ++y) {
      for (std::size_t x = r.x0; x <= r.x1; ++x) cell_tris_[fill[y * nx_ + x]++] = t;
    }
  }
}

std::span<const TriangleId> PointLocator::cell(std::size_t c) const {
  return {cell_tris_.data() + cell_start_[c], cell_start_[c + 1] - cell_start_[c]};
}

std::size_t PointLocator::cell_x(double x) const {
  return axis_cell((x - bounds_.lo.x) * inv_dx_, nx_);
}

std::size_t PointLocator::cell_y(double y) const {
  return axis_cell((y - bounds_.lo.y) * inv_dy_, ny_);
}

std::optional<Location> PointLocator::try_locate(Vec2 p) const {
  const auto& verts = mesh_.vertices();
  for (TriangleId t : cell(cell_of(p))) {
    const auto& tri = mesh_.triangle(t);
    const auto w = barycentric(p, verts[tri.v[0]], verts[tri.v[1]], verts[tri.v[2]]);
    if (inside(w)) return Location{t, w, true};
  }
  return std::nullopt;
}

// locate_lattice answers try_locate's rule — the lowest-id triangle listed
// in p's cell whose barycentric test passes — by walking triangles in
// ascending id and letting the first one that passes claim the point. Cell
// lists hold exactly the triangles whose cell range covers the cell, and
// cell_of is separable, so a triangle's candidates are the lattice columns
// and rows whose grid column and row fall in its range. The lattice is
// processed in bands of about kBandRows consecutive rows, so only a band of
// answers is held at a time.
//
// Pruning skips only points that provably fail the test.
// With u the unit roundoff, D the computed 2·area, P = 2·W·H/|D| for the
// box W x H spanning the triangle and its candidates, Q = 2·w·h/|D| for the
// triangle's own box, each computed weight differs from the exact one by
// less than delta = 32u·(P·(1 + Q) + 1) (about half that, bounding the
// rounding of both cross products, the division and 1 - wa - wb). A point
// that passes therefore has every exact weight >= -eta, eta = 1e-10 + delta,
// and such a point lies within 2·eta·(w + h) of the triangle (the
// negative weights sum to at most 2·eta; moving them onto the positive ones
// moves the point by at most that times the diameter). Doubling that reach
// and adding 32u times the largest coordinate covers the rounding of the
// rows' x-intervals: every edge crossing is computed to within 16u of the
// largest coordinate. Rows outside the triangle's height range widened by
// the reach are skipped; wide ranges also skip the columns outside the row's
// interval. A remaining point is first scaled by the reciprocal of D instead
// of divided by it: that moves each of wa and wb by at most 3u relative and
// 1 - wa - wb by at most 8u·(1 + |wa| + |wb|), so rejections with that
// margin are failures, and only the other points pay barycentric's
// divisions. Degenerate triangles are never pruned, and
// triangles with delta > 1e-10 (slivers, candidates far outside the mesh)
// test their whole range, as do all triangles of a lattice whose x does not
// ascend (step.x <= 0). Lattice coordinates must be finite.
void PointLocator::locate_lattice(const Lattice& lattice,
                                  const LatticeRowSink& sink) const {
  const std::size_t nx = lattice.nx;
  const std::size_t ny = lattice.ny;
  if (nx == 0 || ny == 0) return;
  std::vector<double> xs(nx), ys(ny);
  for (std::size_t i = 0; i < nx; ++i) xs[i] = lattice.x(i);
  for (std::size_t j = 0; j < ny; ++j) ys[j] = lattice.y(j);

  // Lattice columns bucketed by grid column, ascending i within a bucket.
  std::vector<std::size_t> col_start(nx_ + 1, 0), cols(nx);
  for (double x : xs) ++col_start[cell_x(x) + 1];
  for (std::size_t c = 0; c < nx_; ++c) col_start[c + 1] += col_start[c];
  {
    std::vector<std::size_t> fill(col_start.begin(), col_start.end() - 1);
    for (std::size_t i = 0; i < nx; ++i) cols[fill[cell_x(xs[i])]++] = i;
  }
  // With step.x > 0 the lattice x ascends with i and cell_x is monotone, so
  // the buckets list the columns in plain order (cols[k] == k) and a column
  // is found from its x by a guess that exact comparisons correct.
  const double inv_step_x = 1.0 / lattice.step.x;
  const bool prune = lattice.step.x > 0.0 && std::isfinite(lattice.step.x) &&
                     std::isfinite(inv_step_x);
  // First column in [k0, k1) for which before(column) is false.
  const auto first_col = [&](std::size_t k0, std::size_t k1, double x, auto before) {
    auto k = static_cast<std::size_t>(
        std::clamp((x - lattice.origin.x) * inv_step_x + 0.5,
                   static_cast<double>(k0), static_cast<double>(k1)));
    while (k > k0 && !before(xs[k - 1])) --k;
    while (k < k1 && before(xs[k])) ++k;
    return k;
  };

  // Grid row of every lattice row, and how many lattice rows lie in grid
  // rows [0, y).
  std::vector<std::size_t> row_cell(ny), rows_below(ny_ + 1, 0);
  for (std::size_t j = 0; j < ny; ++j) {
    row_cell[j] = cell_y(ys[j]);
    ++rows_below[row_cell[j] + 1];
  }
  for (std::size_t y = 0; y < ny_; ++y) rows_below[y + 1] += rows_below[y];

  // Bands group `group` grid rows (about kBandRows lattice rows). Each
  // group lists, in ascending id, the triangles whose cell range covers one
  // of its grid rows and holds a lattice point.
  const std::size_t group = std::max<std::size_t>(1, kBandRows * ny_ / ny);
  const std::size_t groups = (ny_ + group - 1) / group;
  std::vector<std::size_t> group_start(groups + 1, 0);
  const auto has_points = [&](const CellRange& r) {
    return col_start[r.x1 + 1] > col_start[r.x0] &&
           rows_below[r.y1 + 1] > rows_below[r.y0];
  };
  for (const auto& r : ranges_) {
    if (!has_points(r)) continue;
    for (std::size_t g = r.y0 / group; g <= r.y1 / group; ++g) ++group_start[g + 1];
  }
  for (std::size_t g = 0; g < groups; ++g) group_start[g + 1] += group_start[g];
  std::vector<TriangleId> group_tris(group_start.back());
  {
    std::vector<std::size_t> fill(group_start.begin(), group_start.end() - 1);
    for (TriangleId t = 0; t < mesh_.triangle_count(); ++t) {
      const auto& r = ranges_[t];
      if (!has_points(r)) continue;
      for (std::size_t g = r.y0 / group; g <= r.y1 / group; ++g) {
        group_tris[fill[g]++] = t;
      }
    }
  }

  const auto& verts = mesh_.vertices();
  std::vector<std::optional<Location>> band;
  std::vector<std::size_t> band_rows, row_start(group + 1);
  for (std::size_t j0 = 0; j0 < ny;) {
    // A band: consecutive lattice rows whose grid rows share a group, its
    // rows bucketed by grid row (ascending j within a bucket).
    const std::size_t g = row_cell[j0] / group;
    const std::size_t g0 = g * group;
    std::size_t j1 = j0 + 1;
    while (j1 < ny && row_cell[j1] / group == g) ++j1;
    std::fill(row_start.begin(), row_start.end(), 0);
    for (std::size_t j = j0; j < j1; ++j) ++row_start[row_cell[j] - g0 + 1];
    for (std::size_t y = 0; y < group; ++y) row_start[y + 1] += row_start[y];
    band_rows.resize(j1 - j0);
    {
      std::vector<std::size_t> fill(row_start.begin(), row_start.end() - 1);
      for (std::size_t j = j0; j < j1; ++j) band_rows[fill[row_cell[j] - g0]++] = j;
    }
    const auto [y_min, y_max] =
        std::minmax_element(ys.begin() + static_cast<std::ptrdiff_t>(j0),
                            ys.begin() + static_cast<std::ptrdiff_t>(j1));
    band.assign((j1 - j0) * nx, std::nullopt);
    for (std::size_t e = group_start[g]; e < group_start[g + 1]; ++e) {
      const TriangleId t = group_tris[e];
      const auto& r = ranges_[t];
      const std::size_t k0 = col_start[r.x0];
      const std::size_t k1 = col_start[r.x1 + 1];
      const std::size_t rb = row_start[std::max<std::size_t>(r.y0, g0) - g0];
      const std::size_t re = row_start[std::min<std::size_t>(r.y1 - g0, group - 1) + 1];
      if (rb == re) continue;
      const auto& tri = mesh_.triangle(t);
      const Vec2 a = verts[tri.v[0]], b = verts[tri.v[1]], c = verts[tri.v[2]];
      const bool wide = k1 - k0 > kNarrowRange;
      std::optional<TrianglePruner> pruner;
      if (prune) {
        pruner = TrianglePruner::make(a, b, c, Aabb{{xs[k0], *y_min}, {xs[k1 - 1], *y_max}},
                                 wide);
      }
      for (std::size_t q = rb; q < re; ++q) {
        const std::size_t j = band_rows[q];
        std::size_t kb = k0, ke = k1;
        if (pruner) {
          if (!pruner->spans(ys[j])) continue;
          if (wide) {
            double xl = 0.0, xr = 0.0;
            pruner->row(ys[j], xl, xr);
            kb = first_col(k0, k1, xl, [xl](double x) { return x < xl; });
            ke = first_col(kb, k1, xr, [xr](double x) { return x <= xr; });
          }
        }
        auto* row = band.data() + (j - j0) * nx;
        for (std::size_t k = kb; k < ke; ++k) {
          auto& slot = row[cols[k]];
          if (slot) continue;
          const Vec2 p{xs[cols[k]], ys[j]};
          if (pruner && pruner->rejects(p, a, b, c)) continue;
          const auto w = barycentric(p, a, b, c);
          if (inside(w)) slot = Location{t, w, true};
        }
      }
    }
    for (std::size_t j = j0; j < j1; ++j) {
      sink(j, std::span<const std::optional<Location>>(band.data() + (j - j0) * nx, nx));
    }
    j0 = j1;
  }
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
