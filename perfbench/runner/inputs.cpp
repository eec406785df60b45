// Seeded workload inputs: T timestep fields over one mesh.
//
// The meshes are the library generators' default (paper-size) XGC1 plane
// and GenASiS disk, the same for every seed: decimation and vertex mapping
// depend on geometry alone, so a fixed mesh keeps the write-side work
// identical across seeds. The seed drives the per-timestep fields, generated
// here because the library generators tie one field to each mesh.

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common.hpp"
#include "sim/datasets.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

void finish(Inputs& in) {
  in.field_max.clear();
  for (const auto& f : in.fields) {
    in.field_max.push_back(*std::max_element(f.begin(), f.end()));
  }
}
}  // namespace

Inputs make_xgc_inputs(std::uint64_t seed, std::size_t timesteps) {
  const sim::XgcOptions opt;  // the paper-size plane, one mesh for all seeds
  Inputs in;
  in.mesh = sim::make_xgc_dataset(opt).mesh;
  in.var = "dpot";

  struct Blob {
    double r, theta, sigma, amplitude;
  };
  // Every timestep draws its own blob population (blobs are intermittent),
  // so a run averages the analysis cost over T independent feature sets.
  auto draw_blobs = [&](util::Rng& rng) {
    std::vector<Blob> blobs;
    for (int b = 0; b < 24; ++b) {
      Blob blob;
      blob.r = rng.uniform(0.78, 0.95);
      blob.theta = rng.uniform(0.0, kTwoPi);
      blob.sigma = opt.blob_radius * rng.uniform(0.6, 1.3);
      // Mostly over-densities, every third one an under-density.
      blob.amplitude = (b % 3 == 2 ? -1.0 : 1.0) * rng.uniform(0.3, 1.0);
      blobs.push_back(blob);
    }
    return blobs;
  };
  util::Rng rng(derive_seed(seed, 2));
  struct Mode {
    double m, k, phase, amp, omega;
  };
  std::vector<Mode> modes;
  for (int i = 0; i < 6; ++i) {
    modes.push_back({static_cast<double>(3 + 2 * i), rng.uniform(4.0, 14.0),
                     rng.uniform(0.0, kTwoPi),
                     opt.turbulence_amplitude * rng.uniform(0.5, 1.0),
                     rng.uniform(0.1, 0.4)});
  }

  const auto n = in.mesh.vertex_count();
  for (std::size_t t = 0; t < timesteps; ++t) {
    const double time = static_cast<double>(t);
    util::Rng blob_rng(derive_seed(seed, 100 + t));
    const auto blobs = draw_blobs(blob_rng);
    std::vector<mesh::Vec2> centers;
    for (const auto& b : blobs) {
      centers.push_back({b.r * std::cos(b.theta), b.r * std::sin(b.theta)});
    }
    mesh::Field field(n);
    for (mesh::VertexId v = 0; v < n; ++v) {
      const auto p = in.mesh.vertex(v);
      const double r = p.norm();
      const double theta = std::atan2(p.y, p.x);
      const double x01 = (r - opt.r_inner) / (opt.r_outer - opt.r_inner);
      double value = opt.background_amplitude * std::sin(std::numbers::pi * x01);
      for (const auto& m : modes) {
        value += m.amp * std::sin(m.m * theta + m.phase + m.omega * time) *
                 std::sin(m.k * x01) * x01;
      }
      for (std::size_t b = 0; b < blobs.size(); ++b) {
        const double d2 = (p - centers[b]).norm2();
        value += blobs[b].amplitude *
                 std::exp(-d2 / (2.0 * blobs[b].sigma * blobs[b].sigma));
      }
      field[v] = value;
    }
    in.fields.push_back(std::move(field));
  }
  finish(in);
  return in;
}

Inputs make_genasis_inputs(std::uint64_t seed, std::size_t timesteps) {
  // A quarter of the paper's disk (~16k vertices): at full size the serving
  // working set lives in DRAM, and its time swings with the memory traffic
  // of whatever shares the host by more than any regression bound.
  sim::GenasisOptions opt;  // one mesh for all seeds
  opt.rings = 64;
  opt.sectors = 255;
  Inputs in;
  in.mesh = sim::make_genasis_dataset(opt).mesh;
  in.var = "normVec";

  util::Rng rng(derive_seed(seed, 4));
  struct Mode {
    double m, k, phase;
  };
  std::vector<Mode> ripples;
  for (int i = 0; i < 8; ++i) {
    ripples.push_back({std::floor(rng.uniform(2.0, 7.0)), rng.uniform(3.0, 9.0),
                       rng.uniform(0.0, kTwoPi)});
  }
  const double breath_phase = rng.uniform(0.0, kTwoPi);
  const double spin = rng.uniform(0.05, 0.15);  // SASI rotation per timestep

  const auto n = in.mesh.vertex_count();
  for (std::size_t t = 0; t < timesteps; ++t) {
    const double time = static_cast<double>(t);
    // The standing shock breathes in and out while its modes rotate.
    const double shock = opt.shock_radius + 0.03 * std::sin(0.7 * time + breath_phase);
    mesh::Field field(n);
    for (mesh::VertexId v = 0; v < n; ++v) {
      const auto p = in.mesh.vertex(v);
      const double r = p.norm();
      const double theta = std::atan2(p.y, p.x);
      const double front = 1.0 / (1.0 + std::exp((r - shock) / opt.shock_width));
      const double modulation =
          1.0 + opt.angular_modulation * std::sin(4.0 * (theta + spin * time)) +
          0.5 * opt.angular_modulation * std::sin(2.0 * theta + 0.9 + spin * time);
      const double interior = 0.3 + 0.7 * std::tanh(2.0 * r / shock);
      double ripple = 0.0;
      for (const auto& m : ripples) {
        ripple += std::sin(m.m * theta + m.phase + 0.3 * time) * std::sin(m.k * r);
      }
      field[v] = opt.field_peak * front * modulation * interior + opt.noise * ripple;
    }
    in.fields.push_back(std::move(field));
  }
  finish(in);
  return in;
}

}  // namespace perfbench
