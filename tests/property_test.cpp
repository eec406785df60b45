// Parameterized property sweeps over the core invariants:
//   - decimation keeps meshes valid across mesh families, ratios, priorities
//   - lossy codecs honor every error bound on every signal family
//   - delta/restore is an exact inverse for every estimate mode and level
//   - refactor -> read round trips stay within the accumulated budget
//     across datasets, estimate modes and placement layouts

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "compress/codec.hpp"
#include "core/canopus.hpp"
#include "mesh/cascade.hpp"
#include "mesh/generators.hpp"
#include "mesh/validate.hpp"
#include "storage/blob_frame.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cp = canopus::compress;
namespace cs = canopus::storage;
namespace cu = canopus::util;
namespace ct = canopus::test;

namespace {

cm::TriMesh make_mesh(const std::string& family) {
  if (family == "rect") return cm::make_rect_mesh(28, 28, 1.0, 1.0, 0.2, 11);
  if (family == "annulus") {
    return cm::make_annulus_mesh(12, 64, 0.5, 1.0, 0.15, 11);
  }
  if (family == "disk") return cm::make_disk_mesh(12, 56, 1.0, 0.15, 11);
  if (family == "airfoil") {
    return cm::make_airfoil_mesh(36, 24, 10.0, 6.0, 3.5, 3.0, 2.2, 0.8, 0.1, 11);
  }
  if (family == "shuffled") {
    return cm::shuffle_vertices(cm::make_rect_mesh(28, 28, 1.0, 1.0, 0.2, 11), 5);
  }
  throw canopus::Error("unknown mesh family " + family);
}

cm::Field analytic_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(1.3 * p.x) * std::cos(2.1 * p.y) +
           0.5 * std::exp(-((p.x - 0.4) * (p.x - 0.4) + p.y * p.y) / 0.05);
  }
  return f;
}

std::vector<double> make_signal(const std::string& family, std::size_t n) {
  cu::Rng rng(n + 13);
  std::vector<double> xs(n);
  if (family == "smooth") {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = 25.0 * std::sin(static_cast<double>(i) * 0.004);
    }
  } else if (family == "noisy") {
    for (auto& x : xs) x = rng.normal(0.0, 10.0);
  } else if (family == "spiky") {
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = (i % 97 == 0) ? rng.uniform(-1e6, 1e6) : rng.normal(0.0, 0.01);
    }
  } else if (family == "steps") {
    double level = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 500 == 0) level = rng.uniform(-100.0, 100.0);
      xs[i] = level;
    }
  } else if (family == "tiny") {
    for (auto& x : xs) x = rng.normal(0.0, 1e-12);
  }
  return xs;
}

}  // namespace

// -------------------------------------------------------------- decimation --

class DecimationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, double, cm::EdgePriority>> {};

TEST_P(DecimationSweep, MeshStaysValidAndRatioApproached) {
  const auto& [family, ratio, priority] = GetParam();
  const auto mesh = make_mesh(family);
  const auto field = analytic_field(mesh);
  cm::DecimateOptions opt;
  opt.ratio = ratio;
  opt.priority = priority;
  const auto result = cm::decimate(mesh, field, opt);

  const auto report = cm::validate(result.mesh);
  EXPECT_TRUE(report.ok) << family << " r=" << ratio << ": "
                         << (report.problems.empty() ? "" : report.problems[0]);
  EXPECT_EQ(result.values.size(), result.mesh.vertex_count());
  // Within 25% of the requested ratio (rejections may leave slack at deep
  // ratios on small meshes) and never overshooting into a degenerate mesh.
  EXPECT_GE(result.achieved_ratio, ratio * 0.75);
  EXPECT_GE(result.mesh.vertex_count(), 3u);
  // Averaging never expands the value range.
  const auto [lo0, hi0] = std::minmax_element(field.begin(), field.end());
  const auto [lo1, hi1] =
      std::minmax_element(result.values.begin(), result.values.end());
  EXPECT_GE(*lo1, *lo0 - 1e-12);
  EXPECT_LE(*hi1, *hi0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesRatiosPriorities, DecimationSweep,
    ::testing::Combine(
        ::testing::Values("rect", "annulus", "disk", "airfoil", "shuffled"),
        ::testing::Values(2.0, 4.0, 8.0),
        ::testing::Values(cm::EdgePriority::kShortestFirst,
                          cm::EdgePriority::kRandom)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_r" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param))) +
             (std::get<2>(param_info.param) == cm::EdgePriority::kShortestFirst
                  ? "_short"
                  : "_rand");
    });

// ------------------------------------------------------------ codec bounds --

class CodecBoundSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, double>> {};

TEST_P(CodecBoundSweep, ErrorBoundHeld) {
  const auto& [codec_name, signal, eb] = GetParam();
  const auto codec = cp::make_codec(codec_name);
  const auto xs = make_signal(signal, 6000);
  const auto dec = codec->decode(codec->encode(xs, eb));
  ASSERT_EQ(dec.size(), xs.size());
  EXPECT_LE(cu::max_abs_error(xs, dec), eb)
      << codec_name << " on " << signal << " eb=" << eb;
}

INSTANTIATE_TEST_SUITE_P(
    CodecsSignalsBounds, CodecBoundSweep,
    ::testing::Combine(::testing::Values("zfp", "sz", "zfp+lzss", "sz+huffman"),
                       ::testing::Values("smooth", "noisy", "spiky", "steps",
                                         "tiny"),
                       ::testing::Values(1e-1, 1e-4, 1e-8)),
    [](const auto& param_info) {
      std::string c = std::get<0>(param_info.param);
      std::replace(c.begin(), c.end(), '+', '_');
      return c + "_" + std::get<1>(param_info.param) + "_e" +
             std::to_string(
                 static_cast<int>(-std::log10(std::get<2>(param_info.param))));
    });

// ----------------------------------------------------------- delta inverse --

class DeltaInverseSweep
    : public ::testing::TestWithParam<std::tuple<std::string, cc::EstimateMode>> {
};

TEST_P(DeltaInverseSweep, RestoreInvertsDeltaAcrossTwoLevels) {
  const auto& [family, mode] = GetParam();
  const auto mesh = make_mesh(family);
  const auto field = analytic_field(mesh);
  cm::CascadeOptions copt;
  copt.levels = 3;
  const auto cascade = cm::build_cascade(mesh, field, copt);
  for (std::size_t l = 0; l + 1 < 3; ++l) {
    const auto& fine = cascade.levels[l];
    const auto& coarse = cascade.levels[l + 1];
    const auto mapping = cc::build_mapping(fine.mesh, coarse.mesh);
    const auto delta =
        cc::compute_delta(coarse.mesh, coarse.values, fine.values, mapping, mode);
    const auto restored =
        cc::restore_level(coarse.mesh, coarse.values, delta, mapping, mode);
    ASSERT_EQ(restored.size(), fine.values.size());
    EXPECT_LE(cu::max_abs_error(fine.values, restored), 1e-13)
        << family << " level " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesModes, DeltaInverseSweep,
    ::testing::Combine(::testing::Values("rect", "annulus", "disk", "airfoil"),
                       ::testing::Values(cc::EstimateMode::kUniformThirds,
                                         cc::EstimateMode::kBarycentric,
                                         cc::EstimateMode::kNearestVertex)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_" +
             cc::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------------ end-to-end budgets --

class RoundTripSweep
    : public ::testing::TestWithParam<std::tuple<cc::EstimateMode, bool>> {};

TEST_P(RoundTripSweep, BudgetHeldUnderEstimateAndPlacementVariants) {
  const auto& [mode, tiered] = GetParam();
  const auto mesh = make_mesh("annulus");
  const auto field = analytic_field(mesh);
  cs::StorageHierarchy tiers(
      {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.estimate = mode;
  config.tiered_placement = tiered;
  ct::write_field(tiers, "rt.bp", "v", mesh, field, config);
  const auto reader = ct::open_reader(tiers, "rt.bp", "v");
  reader->refine_to(0);
  EXPECT_LE(cu::max_abs_error(field, reader->values()), 3e-6);
}

INSTANTIATE_TEST_SUITE_P(
    EstimatePlacement, RoundTripSweep,
    ::testing::Combine(::testing::Values(cc::EstimateMode::kUniformThirds,
                                         cc::EstimateMode::kBarycentric,
                                         cc::EstimateMode::kNearestVertex),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return cc::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_tiered" : "_flat");
    });

// --------------------------------------------------------- frame integrity --

// The integrity contract of the framed-blob format: whatever corruption hits
// the stored bytes, a read either fails verification or returns exactly the
// payload that was written — it never silently yields different data.
TEST(FrameIntegritySweep, CorruptedFramesNeverYieldWrongBytes) {
  const std::uint64_t base = canopus::test::test_seed();
  for (std::uint64_t round = 0; round < 100; ++round) {
    const std::uint64_t seed = base + round;
    cu::Rng rng(seed * 977 + 1);
    cu::Bytes payload(1 + rng.uniform_index(2048));
    for (auto& b : payload) b = static_cast<std::byte>(rng.uniform_index(256));
    const auto frame = canopus::storage::frame_blob(payload);

    auto corrupted = frame;
    const std::size_t flips = 1 + rng.uniform_index(8);
    for (std::size_t i = 0; i < flips; ++i) {
      const auto pos = rng.uniform_index(corrupted.size());
      const auto mask = static_cast<std::byte>(1 + rng.uniform_index(255));
      corrupted[pos] ^= mask;  // nonzero mask: the byte definitely changes
    }

    try {
      const auto out = canopus::storage::unframe_blob(corrupted);
      // Corruption slipped past the CRC (possible in principle for multi-bit
      // patterns): the payload must still be byte-identical to count as ok.
      EXPECT_EQ(out, payload)
          << "replay with CANOPUS_TEST_SEED=" << seed << " (base " << base
          << ")";
    } catch (const canopus::storage::IntegrityError&) {
      // Detected — the expected outcome.
    }
  }
}

// Regression guard for the Fig. 5 mechanism itself.
TEST(Fig5Mechanism, CanopusWinsOnShuffledMeshesLosesNothingOnOrdered) {
  for (const bool shuffled : {false, true}) {
    auto mesh = cm::make_annulus_mesh(16, 96, 0.5, 1.0, 0.1, 21);
    if (shuffled) mesh = cm::shuffle_vertices(mesh, 9);
    const auto field = analytic_field(mesh);
    cc::RefactorConfig config;
    config.levels = 3;
    config.codec = "zfp";
    config.error_bound = 1e-4;
    cs::StorageHierarchy tiers(
        {cs::tmpfs_spec(8 << 20), cs::lustre_spec(1 << 30)});
    const auto canopus = ct::write_field(tiers, "f.bp", "v", mesh, field,
                                         config);
    const auto direct = cc::direct_multilevel_sizes(mesh, field, config);
    if (shuffled) {
      // Realistic (incoherent) numbering: the mesh-aware deltas must win.
      EXPECT_LT(canopus.total_stored_bytes() * 100,
                direct.total_stored_bytes() * 98);
    } else {
      // Even with raster numbering Canopus should not lose badly.
      EXPECT_LT(canopus.total_stored_bytes(),
                direct.total_stored_bytes() * 11 / 10);
    }
  }
}
