#include "analytics/blob.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>

#include "util/assert.hpp"

namespace canopus::analytics {

namespace {

/// One threshold slice's 8-connected labelling by runs: each row's bright
/// runs are joined (union-find) with the runs of the previous row they touch
/// diagonally or directly. Component sums are integers (a run of length n
/// from x0 adds n, n·x0 + n(n-1)/2 and n·y), so they equal the per-pixel
/// double sums exactly. Buffers are reused from slice to slice.
class SliceLabeller {
 public:
  /// Appends the bright components of `image` (pixels > threshold) within
  /// the area filter to `out`, in the order of their first pixel in raster
  /// order.
  void label(const std::vector<std::uint8_t>& image, std::size_t width,
             std::size_t height, double threshold, const BlobParams& params,
             std::vector<Blob>& out) {
    // For an 8-bit pixel v, v > t exactly when v > floor(t).
    const auto cut = static_cast<int>(std::clamp(std::floor(threshold), -1.0, 255.0));
    runs_.clear();
    parent_.clear();
    bright_.resize(width);
    std::size_t prev = 0;  // first run of the previous row
    for (std::size_t y = 0; y < height; ++y) {
      const std::uint8_t* row = image.data() + y * width;
      for (std::size_t x = 0; x < width; ++x) bright_[x] = row[x] > cut;
      const std::size_t first = runs_.size();
      for (std::size_t x = 0; x < width;) {
        x = run_end(x, width, 0);
        if (x == width) break;
        const std::size_t x0 = x;
        x = run_end(x, width, 1);
        runs_.push_back({x0, x, y});
        parent_.push_back(static_cast<std::uint32_t>(parent_.size()));
      }
      // Runs [a0, a1) above and [b0, b1) here touch iff a0 <= b1 && b0 <= a1.
      std::size_t p = prev;
      for (std::size_t r = first; r < runs_.size(); ++r) {
        while (p < first && runs_[p].x1 < runs_[r].x0) ++p;
        for (std::size_t q = p; q < first && runs_[q].x0 <= runs_[r].x1; ++q) {
          unite(static_cast<std::uint32_t>(q), static_cast<std::uint32_t>(r));
        }
      }
      prev = first;
    }

    constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
    comp_of_.assign(runs_.size(), kNone);
    comps_.clear();
    for (std::size_t r = 0; r < runs_.size(); ++r) {
      const auto root = find(static_cast<std::uint32_t>(r));
      if (comp_of_[root] == kNone) {
        comp_of_[root] = static_cast<std::uint32_t>(comps_.size());
        comps_.emplace_back();
      }
      auto& c = comps_[comp_of_[root]];
      const Run& run = runs_[r];
      const std::uint64_t n = run.x1 - run.x0;
      c.area += n;
      c.sum_x += n * run.x0 + n * (n - 1) / 2;
      c.sum_y += n * run.y;
    }
    for (const auto& c : comps_) {
      const auto area = static_cast<double>(c.area);
      if (area < params.min_area || area > params.max_area) continue;
      Blob b;
      b.center = {static_cast<double>(c.sum_x) / area,
                  static_cast<double>(c.sum_y) / area};
      b.area = area;
      b.diameter = 2.0 * std::sqrt(area / std::numbers::pi);
      out.push_back(b);
    }
  }

 private:
  struct Run {
    std::size_t x0, x1, y;  // pixels [x0, x1) of row y
  };
  struct Component {
    std::uint64_t area = 0, sum_x = 0, sum_y = 0;
  };

  /// First x' >= x with bright_[x'] != flag (or width): skips eight pixels
  /// a step through uniform stretches.
  std::size_t run_end(std::size_t x, std::size_t width, std::uint8_t flag) const {
    const std::uint64_t same = flag * 0x0101010101010101ull;
    for (std::uint64_t word = 0; x + 8 <= width; x += 8) {
      std::memcpy(&word, bright_.data() + x, sizeof word);
      if (word != same) break;
    }
    while (x < width && bright_[x] == flag) ++x;
    return x;
  }

  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

  std::vector<std::uint8_t> bright_;  // 1 where the current row is bright
  std::vector<Run> runs_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> comp_of_;
  std::vector<Component> comps_;
};

}  // namespace

std::vector<Blob> detect_blobs(const std::vector<std::uint8_t>& image,
                               std::size_t width, std::size_t height,
                               const BlobParams& params) {
  CANOPUS_CHECK(image.size() == width * height, "blob: image size mismatch");
  CANOPUS_CHECK(params.threshold_step > 0, "blob: threshold step must be > 0");

  // Candidate blob tracks accumulated across threshold slices.
  struct Track {
    std::vector<Blob> slices;
    mesh::Vec2 last_center;
  };
  std::vector<Track> tracks;

  SliceLabeller labeller;
  std::vector<Blob> slice;
  for (double t = params.min_threshold; t < params.max_threshold;
       t += params.threshold_step) {
    slice.clear();
    labeller.label(image, width, height, t, params, slice);
    for (const auto& b : slice) {
      Track* best = nullptr;
      double best_d = params.min_dist_between_blobs;
      for (auto& track : tracks) {
        const double d = mesh::distance(track.last_center, b.center);
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

  std::vector<Blob> out;
  for (const auto& track : tracks) {
    if (track.slices.size() < params.min_repeatability) continue;
    Blob merged;
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
  // Deterministic order: by descending area then x.
  std::sort(out.begin(), out.end(), [](const Blob& a, const Blob& b) {
    return a.area != b.area ? a.area > b.area : a.center.x < b.center.x;
  });
  return out;
}

BlobStats summarize(const std::vector<Blob>& blobs) {
  BlobStats s;
  s.count = blobs.size();
  for (const auto& b : blobs) {
    s.mean_diameter += b.diameter;
    s.aggregate_area += b.area;
  }
  if (!blobs.empty()) s.mean_diameter /= static_cast<double>(blobs.size());
  return s;
}

double overlap_ratio(const std::vector<Blob>& detected,
                     const std::vector<Blob>& reference) {
  if (detected.empty()) return 1.0;
  std::size_t overlapping = 0;
  for (const auto& d : detected) {
    for (const auto& r : reference) {
      if (mesh::distance(d.center, r.center) < d.radius() + r.radius()) {
        ++overlapping;
        break;
      }
    }
  }
  return static_cast<double>(overlapping) / static_cast<double>(detected.size());
}

void annotate_blobs(std::vector<std::uint8_t>& image, std::size_t width,
                    std::size_t height, const std::vector<Blob>& blobs,
                    std::uint8_t intensity, double margin) {
  CANOPUS_CHECK(image.size() == width * height, "annotate: image size mismatch");
  for (const auto& b : blobs) {
    const double r = b.radius() + margin;
    // Midpoint-style sweep: walk the angle finely enough that every ring
    // pixel gets hit at least once.
    const int steps = std::max(16, static_cast<int>(8.0 * r));
    for (int s = 0; s < steps; ++s) {
      const double theta = 2.0 * std::numbers::pi * s / steps;
      const auto x = static_cast<long>(std::lround(b.center.x + r * std::cos(theta)));
      const auto y = static_cast<long>(std::lround(b.center.y + r * std::sin(theta)));
      if (x >= 0 && y >= 0 && x < static_cast<long>(width) &&
          y < static_cast<long>(height)) {
        image[static_cast<std::size_t>(y) * width + static_cast<std::size_t>(x)] =
            intensity;
      }
    }
  }
}

}  // namespace canopus::analytics
