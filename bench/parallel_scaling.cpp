// Refactor/restore wall-clock vs worker count on a >=100k-vertex mesh.
//
// Runs the campaign-regime pipeline (cascade prebuilt, so decimation — an
// inherently serial mesh-lifetime cost — is amortized away) at a sweep of
// thread counts and reports per-count refactor, restore, and end-to-end
// seconds as machine-readable JSON, plus the speedup over the 1-thread run
// and whether the restored field stayed bitwise-identical to it.
//
//   parallel_scaling [--threads=N] [--nx=360] [--levels=4] [--chunks=8]
//                    [--reps=3] [--eb=1e-6]
//
// --threads=N restricts the sweep to {1, N}; by default it covers powers of
// two up to the hardware concurrency.

#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/canopus.hpp"
#include "mesh/cascade.hpp"
#include "mesh/generators.hpp"
#include "storage/hierarchy.hpp"
#include "util/timer.hpp"

namespace cb = canopus::bench;
namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace cu = canopus::util;

namespace {

cm::Field wavy_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 6.0) * std::cos(p.y * 5.0) + 0.3 * p.x * p.y;
  }
  return f;
}

cs::StorageHierarchy roomy_tiers() {
  return cs::StorageHierarchy(
      {cs::tmpfs_spec(1ull << 30), cs::lustre_spec(4ull << 30)});
}

struct Sample {
  double refactor_s = 0.0;
  double restore_s = 0.0;
  bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  const cu::Cli cli(argc, argv);
  const auto nx = static_cast<std::size_t>(cli.get_int("nx", 360));
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 3));
  // --trace-out=trace.json: the JSON output stays on stdout; the summary
  // tables would corrupt it, so only the Chrome trace file is written.
  cb::observability_flags(cli);

  cc::RefactorConfig config;
  config.levels = static_cast<std::size_t>(cli.get_int("levels", 4));
  config.delta_chunks = static_cast<std::uint32_t>(cli.get_int("chunks", 8));
  config.codec = "zfp";
  config.error_bound = cli.get_double("eb", 1e-6);

  const auto mesh = cm::make_rect_mesh(nx, nx, 1.0, 1.0, 0.1, 42);
  const auto values = wavy_field(mesh);

  // Campaign regime: the cascade is built once per mesh and shared by every
  // timestep, so the sweep times only the per-variable pipeline.
  const auto cascade =
      cm::build_cascade(mesh, values, cc::cascade_options(config));

  std::vector<std::size_t> sweep;
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (cli.has("threads")) {
    const auto t = cb::threads_flag(cli);
    sweep = {1, t == 0 ? hw : t};
  } else {
    for (std::size_t t = 1; t <= hw; t *= 2) sweep.push_back(t);
    if (sweep.back() != hw) sweep.push_back(hw);
  }

  // Warm the process-wide spatial-order memo so the first timed run does not
  // pay the one-off Morton sorts the later ones would get from cache.
  for (const auto& level : cascade.levels) cc::cached_spatial_order(level.mesh);

  cm::Field reference;  // restored field of the 1-thread run
  std::printf("{\n  \"bench\": \"parallel_scaling\",\n");
  std::printf("  \"vertices\": %zu,\n  \"levels\": %zu,\n  \"chunks\": %u,\n",
              mesh.vertex_count(), config.levels, config.delta_chunks);
  std::printf("  \"reps\": %zu,\n  \"results\": [", reps);

  double e2e_1 = 0.0;
  bool first_row = true;
  for (const std::size_t threads : sweep) {
    canopus::Options options;
    options.parallel.threads = threads;
    options.parallel.read_ahead = threads > 1;

    Sample best;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Sample s;
      canopus::Pipeline pipeline(roomy_tiers(), options);
      {
        canopus::WriteRequest request;
        request.path = "scale.bp";
        request.var = "v";
        request.cascade = &cascade;
        request.config = config;
        cu::WallTimer t;
        const auto status = pipeline.write(request);
        s.refactor_s = t.seconds();
        if (!status.ok()) throw canopus::Error(status.to_string());
      }
      const auto geometry =
          cc::GeometryCache::load(pipeline.hierarchy(), "scale.bp", "v");
      cm::Field restored;
      {
        canopus::ReadRequest request;
        request.path = "scale.bp";
        request.var = "v";
        request.geometry = &geometry;
        std::unique_ptr<cc::ProgressiveReader> reader;
        cu::WallTimer t;
        const auto status = pipeline.open(request, &reader);
        if (!status.ok()) throw canopus::Error(status.to_string());
        reader->refine_to(0);
        s.restore_s = t.seconds();
        restored = reader->values();
      }
      if (reference.empty()) {
        reference = restored;  // first rep of the first (1-thread) entry
      }
      s.identical = restored == reference;
      if (rep == 0 || s.refactor_s + s.restore_s < best.refactor_s + best.restore_s) {
        const bool id = best.identical && s.identical;
        best = s;
        best.identical = id;
      } else {
        best.identical = best.identical && s.identical;
      }
    }

    const double e2e = best.refactor_s + best.restore_s;
    if (threads == sweep.front()) e2e_1 = e2e;
    std::printf("%s\n    {\"threads\": %zu, \"refactor_s\": %.6f, "
                "\"restore_s\": %.6f, \"end_to_end_s\": %.6f, "
                "\"speedup\": %.3f, \"bitwise_identical\": %s}",
                first_row ? "" : ",", threads, best.refactor_s, best.restore_s,
                e2e, e2e_1 / e2e, best.identical ? "true" : "false");
    first_row = false;
  }
  std::printf("\n  ]\n}\n");
  canopus::obs::flush();
  return 0;
}
