#pragma once
// Uniform-grid point location over a triangular mesh.
//
// Delta calculation (Algorithm 2) and restoration (Algorithm 3) both need,
// for every fine-level vertex, the coarse-level triangle that contains it.
// Canopus stores that mapping in metadata during refactoring; this locator
// is what builds it. The brute-force O(V·T) scan the paper warns about is
// replaced by bucketing triangle bounding boxes into a uniform grid; points
// outside the mesh find their nearest triangle by a ring search over the
// same grid, which returns exactly what a scan of every triangle would.

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "mesh/tri_mesh.hpp"

namespace canopus::mesh {

/// Result of a point query: containing triangle plus barycentric weights.
struct Location {
  TriangleId triangle = static_cast<TriangleId>(-1);
  std::array<double, 3> weights{0.0, 0.0, 0.0};
  /// False when the point was outside every triangle and the nearest triangle
  /// with clamped weights was used instead (boundary shrinkage after edge
  /// collapses makes this unavoidable near the rim).
  bool exact = true;
};

/// The cell-centred regular lattice of an nx x ny pixel grid: point (i, j)
/// is origin + ((i + 0.5)·step.x, (j + 0.5)·step.y).
struct Lattice {
  Vec2 origin;
  Vec2 step;
  std::size_t nx = 0;
  std::size_t ny = 0;

  double x(std::size_t i) const {
    return origin.x + (static_cast<double>(i) + 0.5) * step.x;
  }
  double y(std::size_t j) const {
    return origin.y + (static_cast<double>(j) + 0.5) * step.y;
  }
  Vec2 point(std::size_t i, std::size_t j) const { return {x(i), y(j)}; }
};

class PointLocator {
 public:
  /// Builds the grid index; `cells_per_triangle` tunes grid resolution.
  explicit PointLocator(const TriMesh& mesh, double cells_per_triangle = 1.0);

  /// Locates p; falls back to the nearest triangle when p is outside the mesh.
  Location locate(Vec2 p) const;

  /// Exact containment only: returns nullopt for points outside every
  /// triangle instead of the nearest-triangle fallback. Use for dense
  /// queries like rasterization where misses are expected and cheap.
  std::optional<Location> try_locate(Vec2 p) const;

  /// Receives lattice row j; row[i] answers point (i, j).
  using LatticeRowSink = std::function<void(
      std::size_t j, std::span<const std::optional<Location>> row)>;

  /// try_locate for every point of `lattice`, in row-major order: calls
  /// sink(j, row) once for each j = 0, 1, ..., ny - 1, and row[i] equals
  /// try_locate(lattice.point(i, j)) bit for bit — same triangle, same
  /// weights. Walks triangles instead of points, so dense lattices (rasters)
  /// cost about one containment test per point.
  void locate_lattice(const Lattice& lattice, const LatticeRowSink& sink) const;

  std::size_t grid_nx() const { return nx_; }
  std::size_t grid_ny() const { return ny_; }

 private:
  std::size_t cell_x(double x) const;
  std::size_t cell_y(double y) const;
  std::size_t cell_of(Vec2 p) const { return cell_y(p.y) * nx_ + cell_x(p.x); }
  /// Triangles whose bounding box overlaps cell `c`, in ascending id order.
  std::span<const TriangleId> cell(std::size_t c) const;
  Location nearest_fallback(Vec2 p) const;

  const TriMesh& mesh_;
  Aabb bounds_;
  std::size_t nx_ = 1, ny_ = 1;
  double inv_dx_ = 0.0, inv_dy_ = 0.0;
  /// The inclusive block of grid cells triangle t's bounding box overlaps.
  struct CellRange {
    std::uint32_t x0, y0, x1, y1;
  };
  std::vector<CellRange> ranges_;
  // Cell c lists cell_tris_[cell_start_[c] .. cell_start_[c + 1]).
  std::vector<std::size_t> cell_start_;
  std::vector<TriangleId> cell_tris_;
};

}  // namespace canopus::mesh
