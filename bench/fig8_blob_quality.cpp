// Figures 7 and 8: impact of decimation on blob detection quality.
//
// A 6-level Canopus refactoring of the XGC1 dpot plane yields accuracy levels
// at decimation ratios None(1), 2, 4, 8, 16, 32. For each level and each of
// the paper's three detector configs <minThreshold, maxThreshold, minArea>,
// we report: number of blobs (8a), average blob diameter in pixels (8b),
// aggregate blob area in square pixels (8c), and the overlap ratio against
// the full-accuracy blobs (8d). The macroscopic panels of Fig. 7 are dumped
// as PGM images per level.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "mesh/mesh_io.hpp"

using namespace canopus;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto raster_px = static_cast<std::size_t>(cli.get_int("raster", 360));
  const auto out_dir = cli.get("out", "/tmp");
  const std::size_t levels = 6;  // ratios 1 .. 32

  const auto ds = sim::make_xgc_dataset({});
  std::cout << "workload: xgc1 dpot plane, " << ds.mesh.vertex_count()
            << " vertices / " << ds.mesh.triangle_count() << " triangles; "
            << levels - 1 << " decimation passes\n\n";

  // Build the level stack once via the refactor+read path so what we analyze
  // is exactly what an analytics consumer would see.
  auto tiers = bench::make_two_tier(1 << 20);
  core::RefactorConfig config;
  config.levels = levels;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  bench::write_field(tiers, "fig8.bp", "dpot", ds.mesh, ds.values, config);

  const auto bounds = ds.mesh.bounds();
  // Clamp intensities at zero: blobs are positive over-densities and the
  // detector's thresholds sweep their amplitude range (see bench_common).
  const double lo = 0.0;
  const double hi = *std::max_element(ds.values.begin(), ds.values.end());

  // Collect the per-level images, deepest (base) first then refined.
  struct LevelImage {
    std::string label;  // decimation ratio
    std::uint32_t level;
    std::vector<std::uint8_t> gray;
  };
  std::vector<LevelImage> images;
  {
    const auto reader = bench::open_reader(tiers, "fig8.bp", "dpot");
    for (;;) {
      const auto raster = analytics::rasterize(reader->current_mesh(),
                                               reader->values(), raster_px,
                                               raster_px, bounds, lo);
      const double ratio = reader->decimation_ratio();
      LevelImage img;
      img.level = reader->current_level();
      img.label = reader->at_full_accuracy()
                      ? "None"
                      : std::to_string(static_cast<int>(std::round(ratio)));
      img.gray = analytics::to_gray8(raster, lo, hi);
      images.push_back(std::move(img));
      if (reader->at_full_accuracy()) break;
      reader->refine();
    }
  }
  std::reverse(images.begin(), images.end());  // None first, then 2, 4, ...

  // Fig. 7 panels, with the detected blobs explicitly circled as in the
  // paper (Config1 detection).
  for (const auto& img : images) {
    auto annotated = img.gray;
    const auto blobs = analytics::detect_blobs(img.gray, raster_px, raster_px,
                                               bench::blob_config(1));
    analytics::annotate_blobs(annotated, raster_px, raster_px, blobs);
    mesh::save_pgm(annotated, raster_px, raster_px,
                   out_dir + "/fig7_L" + std::to_string(img.level) + ".pgm");
  }
  std::cout << "Fig. 7 panels (blobs circled) written to " << out_dir
            << "/fig7_L*.pgm\n\n";

  // Fig. 8 sweeps.
  for (int cfg = 1; cfg <= 3; ++cfg) {
    const auto params = bench::blob_config(cfg);
    std::vector<analytics::Blob> reference;
    util::Table t({"decimation", "blobs(8a)", "avg-diam-px(8b)",
                   "aggr-area-px2(8c)", "overlap(8d)"});
    for (const auto& img : images) {
      const auto blobs =
          analytics::detect_blobs(img.gray, raster_px, raster_px, params);
      if (img.label == "None") reference = blobs;
      const auto s = analytics::summarize(blobs);
      t.add_row({img.label, std::to_string(s.count),
                 util::Table::num(s.mean_diameter, 1),
                 util::Table::num(s.aggregate_area, 0),
                 util::Table::num(analytics::overlap_ratio(blobs, reference), 3)});
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "Fig. 8 Config%d <min=%g, max=%g, minArea=%g>", cfg,
                  params.min_threshold, params.max_threshold, params.min_area);
    t.print(std::cout, buf);
    if (cli.has("csv")) {
      t.save_csv(cli.get("csv", ".") + "/fig8_config" + std::to_string(cfg) +
                 ".csv");
    }
    std::cout << '\n';
  }
  std::cout << "Observation: decimation erodes faint blobs, inflates surviving\n"
               "ones (edge-collapse averaging), yet the overlap with the\n"
               "full-accuracy blobs stays high -- Section IV-D.\n";
  return 0;
}
