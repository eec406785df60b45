#include "analytics/raster.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace canopus::analytics {

RasterField rasterize(const mesh::TriMesh& mesh, const mesh::Field& values,
                      std::size_t width, std::size_t height,
                      const mesh::Aabb& bounds, double background) {
  CANOPUS_CHECK(width > 0 && height > 0, "raster dimensions must be positive");
  CANOPUS_CHECK(values.size() == mesh.vertex_count(),
                "raster: field size mismatch");
  RasterField out;
  out.width = width;
  out.height = height;
  out.pixels.assign(width * height, background);
  out.inside.assign(width * height, false);

  const mesh::PointLocator locator(mesh);
  const mesh::Lattice lattice{bounds.lo,
                              {bounds.width() / static_cast<double>(width),
                               bounds.height() / static_cast<double>(height)},
                              width, height};
  locator.locate_lattice(
      lattice, [&](std::size_t y, std::span<const std::optional<mesh::Location>> row) {
        for (std::size_t x = 0; x < width; ++x) {
          if (!row[x]) continue;  // outside the mesh: keep background
          const auto& loc = *row[x];
          const auto& tri = mesh.triangle(loc.triangle);
          out.at(x, y) = values[tri.v[0]] * loc.weights[0] +
                         values[tri.v[1]] * loc.weights[1] +
                         values[tri.v[2]] * loc.weights[2];
          out.inside[y * width + x] = true;
        }
      });
  return out;
}

std::vector<std::uint8_t> to_gray8(const RasterField& field, double lo, double hi) {
  CANOPUS_CHECK(hi > lo, "gray8: empty reference range");
  std::vector<std::uint8_t> out(field.pixels.size());
  const double scale = 255.0 / (hi - lo);
  for (std::size_t i = 0; i < field.pixels.size(); ++i) {
    const double v = std::clamp((field.pixels[i] - lo) * scale, 0.0, 255.0);
    out[i] = static_cast<std::uint8_t>(std::lround(v));
  }
  return out;
}

}  // namespace canopus::analytics
