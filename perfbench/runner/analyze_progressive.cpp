// analyze_progressive: one analyst, no cache, blocking I/O (depth 1), over
// T XGC1 containers written in set-up. One operation is a sweep over the
// campaign: an episode on every timestep, in a seeded order, so every
// operation does the same work. Each episode:
//
//   1. base answer: Pipeline::open (base level), rasterize at 360 px and
//      detect blobs (config 1) on it;
//   2. zoom: refine_region around the largest base blob down to level 0
//      (the examples/roi_zoom.cpp protocol);
//   3. full read: a fresh Pipeline::read to full accuracy, checked against
//      the input within levels x error_bound.
//
// Traced: the same calls wrapped in spans, except that step 3 runs as
// Pipeline::open + ProgressiveReader::refine() until level 0 (what
// Pipeline::read does inside) so each refinement step is a span of its own.
//
// The analyst runs as a task on the library's global pool, with
// Options::parallel.threads = 0 (readers use that pool) and read-ahead off,
// as an application running Canopus inside its own task runtime would. The
// readers' parallel sections then run inline on the analyst's thread
// (util::ThreadPool's re-entrancy rule), so the workload measures one core's
// analysis cost without cross-thread hand-offs, whose wake-up delays on a
// shared host would otherwise dominate its run-to-run spread.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "analytics/blob.hpp"
#include "analytics/raster.hpp"
#include "common.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTimesteps = 8;
constexpr std::size_t kMinSweeps = 40;  // p75 needs 10 samples beyond it
constexpr std::size_t kDigestEpisodes = 16;
constexpr std::size_t kRasterPx = 360;

analytics::BlobParams blob_config1() {
  analytics::BlobParams p;
  p.threshold_step = 10;
  p.min_threshold = 10;
  p.max_threshold = 200;
  p.min_area = 100;
  return p;
}

struct State {
  Inputs in;
  std::vector<storage::TierSpec> specs;
  std::unique_ptr<storage::StorageHierarchy> tiers;
  std::unique_ptr<Pipeline> pipeline;
  std::vector<core::GeometryCache> geometry;
  std::vector<std::size_t> order;  // timestep of each episode: permutations, cycled
  mesh::Aabb bounds;
};

std::string path_of(std::size_t t) {
  return std::string("ts").append(std::to_string(t)).append(".bp");
}

class Analyst {
 public:
  Analyst(const State& state, Report& report) : s_(state), report_(report) {}

  /// One sweep: an episode on every timestep. Records the sweep's time (the
  /// sum of its episodes') and simulated I/O unless an episode failed.
  void sweep(SpanRecorder* rec, const std::string& series) {
    double wall_ms = 0.0, sim_io_ms = 0.0;
    for (std::size_t i = 0; i < kTimesteps; ++i) {
      if (!episode(rec, series, &wall_ms, &sim_io_ms)) return;
    }
    report_.add(series + "op_ms", wall_ms);
    report_.add(series + "sim_io_ms", sim_io_ms);
  }

  std::uint64_t digest() const { return digest_; }

 private:
  /// One episode on the next timestep; adds its wall and simulated I/O time
  /// to the sweep's. False when it failed.
  bool episode(SpanRecorder* rec, const std::string& series, double* wall_ms,
               double* sim_io_ms) {
    const std::size_t op = next_op_++;
    const std::size_t t = s_.order[op % s_.order.size()];
    ReadRequest rreq;
    rreq.path = path_of(t);
    rreq.var = s_.in.var;
    rreq.geometry = &s_.geometry[t];
    auto& pipeline = *s_.pipeline;

    report_.attempt();
    if (rec != nullptr) rec->begin_op(op + 1);
    std::optional<ScopedSpan> episode_span;
    episode_span.emplace(rec, "episode");
    const auto t0 = Clock::now();

    // (1) The coarse answer: blobs on the base level.
    std::unique_ptr<core::ProgressiveReader> reader;
    std::vector<analytics::Blob> blobs;
    {
      ScopedSpan span(rec, "base_answer");
      Status st;
      {
        ScopedSpan s(rec, "core.open_base");
        st = pipeline.open(rreq, &reader);
      }
      if (!st.ok()) return fail("open " + rreq.path + ": " + st.to_string());
      std::vector<std::uint8_t> image;
      {
        ScopedSpan s(rec, "analytics.rasterize");
        const auto raster =
            analytics::rasterize(reader->current_mesh(), reader->values(),
                                 kRasterPx, kRasterPx, s_.bounds, 0.0);
        image = analytics::to_gray8(raster, 0.0, s_.in.field_max[t]);
      }
      ScopedSpan s(rec, "analytics.detect_blobs");
      blobs = analytics::detect_blobs(image, kRasterPx, kRasterPx, blob_config1());
    }
    const auto t1 = Clock::now();
    if (blobs.empty()) return fail("no base blobs in " + rreq.path);

    // (2) Zoom on the largest blob (detect_blobs sorts by area).
    {
      ScopedSpan span(rec, "zoom");
      const mesh::Aabb roi = blob_extent(blobs.front());
      while (!reader->at_full_accuracy()) {
        ScopedSpan s(rec, "core.refine_region");
        reader->refine_region(roi);
        if (reader->last_status() != core::RefineStatus::kOk) {
          return fail("zoom on " + rreq.path + ": " +
                      core::to_string(reader->last_status()));
        }
      }
    }
    const auto t2 = Clock::now();

    // (3) A fresh read to full accuracy.
    mesh::Field values;
    core::RetrievalTimings full;
    std::uint32_t level = 0;
    if (rec == nullptr) {
      ReadResult result;
      const auto st = pipeline.read(rreq, &result);
      if (!st.ok()) return fail("read " + rreq.path + ": " + st.to_string());
      values = std::move(result.values);
      full = result.timings;
      level = result.level;
    } else {
      ScopedSpan span(rec, "full_read");
      std::unique_ptr<core::ProgressiveReader> fresh;
      Status st;
      {
        ScopedSpan s(rec, "core.open");
        st = pipeline.open(rreq, &fresh);
      }
      if (!st.ok()) return fail("open " + rreq.path + ": " + st.to_string());
      while (!fresh->at_full_accuracy()) {
        ScopedSpan s(rec, "core.refine");
        fresh->refine();
        if (fresh->last_status() != core::RefineStatus::kOk) {
          return fail("refine " + rreq.path + ": " +
                      core::to_string(fresh->last_status()));
        }
      }
      values = fresh->values();
      full = fresh->cumulative();
      level = fresh->current_level();
    }
    const auto t3 = Clock::now();
    episode_span.reset();  // the checks below are not part of the episode

    const auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    if (!check(t, op, level, values, reader->values(), blobs.size())) return false;
    *wall_ms += ms(t0, t3);
    *sim_io_ms += (reader->cumulative().io_seconds + full.io_seconds) * 1e3;
    report_.add(series + "episode_ms", ms(t0, t3));
    report_.add(series + "base_answer_ms", ms(t0, t1));
    report_.add(series + "zoom_ms", ms(t1, t2));
    report_.add(series + "full_read_ms", ms(t2, t3));
    report_.add(series + "compress.decode_ms", full.decompress_seconds * 1e3);
    report_.add(series + "core.restore_level_ms", full.restore_seconds * 1e3);
    report_.add(series + "decode_mib", static_cast<double>(full.bytes_read) / (1 << 20));
    report_.add(series + "analytics.blobs_found", static_cast<double>(blobs.size()));
    return true;
  }

  bool fail(const std::string& why) {
    report_.fail(why);
    return false;
  }

  /// The zoom region around a blob: its pixel extent plus a 6 px margin,
  /// mapped back to mesh coordinates.
  mesh::Aabb blob_extent(const analytics::Blob& blob) const {
    const double px_to_x = s_.bounds.width() / static_cast<double>(kRasterPx);
    const double px_to_y = s_.bounds.height() / static_cast<double>(kRasterPx);
    const mesh::Vec2 c{s_.bounds.lo.x + blob.center.x * px_to_x,
                       s_.bounds.lo.y + blob.center.y * px_to_y};
    const double rx = (blob.radius() + 6.0) * px_to_x;
    const double ry = (blob.radius() + 6.0) * px_to_y;
    mesh::Aabb roi;
    roi.lo = {c.x - rx, c.y - ry};
    roi.hi = {c.x + rx, c.y + ry};
    return roi;
  }

  /// Full accuracy within levels x error_bound of the input; the same bits
  /// (full read, zoomed field, blob count) every time a timestep recurs.
  bool check(std::size_t t, std::size_t op, std::uint32_t level,
             const mesh::Field& values, const mesh::Field& zoomed,
             std::size_t blob_count) {
    const auto config = refactor_config();
    const double bound = static_cast<double>(config.levels) * config.error_bound;
    const double err = max_abs_diff(values, s_.in.fields[t]);
    if (level != 0 || !(err <= bound)) {
      report_.fail("full read of " + path_of(t) + " at level " +
                   std::to_string(level) + ", max-abs error " +
                   std::to_string(err) + " (bound " + std::to_string(bound) + ")");
      return false;
    }
    std::uint64_t d = digest_u64(blob_count, perfbench::digest(values));
    d = perfbench::digest(zoomed, d);
    const auto [it, inserted] = by_timestep_.emplace(t, d);
    if (!inserted && it->second != d) {
      report_.fail("episode output of " + path_of(t) + " changed between episodes");
      return false;
    }
    if (op < kDigestEpisodes) digest_ = digest_u64(d, digest_);
    return true;
  }

  const State& s_;
  Report& report_;
  std::size_t next_op_ = 0;
  std::map<std::size_t, std::uint64_t> by_timestep_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
};

std::unique_ptr<State> setup(const Args& args, Report& report) {
  auto s = std::make_unique<State>();
  s->in = make_xgc_inputs(args.seed, kTimesteps);
  s->bounds = s->in.mesh.bounds();
  const std::size_t raw_bytes = s->in.mesh.vertex_count() * sizeof(double);
  // Every container's base fits the fast tier, as with one container per
  // hierarchy; deltas spill to the contended PFS.
  s->specs = two_tier_specs(kTimesteps * raw_bytes);
  s->tiers = std::make_unique<storage::StorageHierarchy>(s->specs);
  Options options;
  options.parallel.threads = 0;  // the global pool, whose task runs the analyst
  options.parallel.read_ahead = false;
  s->pipeline = std::make_unique<Pipeline>(*s->tiers, options);
  // Set-up writes through a pipeline with a one-thread pool of its own: one
  // busy core, as in the loop, and no waiting on the global pool that the
  // analyst's own task occupies.
  Options write_options;
  write_options.parallel.threads = 1;
  Pipeline writer(*s->tiers, write_options);

  double raw = 0, stored = 0, base_raw = 0, base_stored = 0, delta_raw = 0,
         delta_stored = 0;
  for (std::size_t t = 0; t < kTimesteps; ++t) {
    WriteRequest wreq;
    wreq.path = path_of(t);
    wreq.var = s->in.var;
    wreq.mesh = &s->in.mesh;
    wreq.values = &s->in.fields[t];
    wreq.config = refactor_config();
    WriteResult result;
    const auto st = writer.write(wreq, &result);
    if (!st.ok()) throw Error("set-up write failed: " + st.to_string());
    raw += static_cast<double>(raw_bytes);
    stored += static_cast<double>(result.report.total_stored_bytes());
    for (const auto& p : result.report.products) {
      const bool base = p.name == "base";
      (base ? base_raw : delta_raw) += static_cast<double>(p.raw_bytes);
      (base ? base_stored : delta_stored) += static_cast<double>(p.stored_bytes);
    }
  }
  report.set("stored_ratio", stored / raw);
  report.set("compress.ratio.base", base_raw / base_stored);
  report.set("compress.ratio.delta", delta_raw / delta_stored);
  for (std::size_t t = 0; t < kTimesteps; ++t) {
    s->geometry.push_back(
        core::GeometryCache::load(*s->tiers, path_of(t), s->in.var));
  }
  util::Rng rng(derive_seed(args.seed, 10));
  for (std::size_t k = 0; k < 512; ++k) {
    std::vector<std::size_t> perm(kTimesteps);
    for (std::size_t i = 0; i < kTimesteps; ++i) perm[i] = i;
    for (std::size_t i = kTimesteps - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_u64() % (i + 1)]);
    }
    s->order.insert(s->order.end(), perm.begin(), perm.end());
  }
  // Warm-up pass: one untimed sweep.
  Report scratch;
  Analyst warm(*s, scratch);
  warm.sweep(nullptr, "");
  if (scratch.failed() != 0) throw Error("warm-up sweep failed");
  return s;
}

std::size_t loop(Analyst& analyst, const LoopBudget& budget, SpanRecorder* rec,
                 const std::string& series) {
  const auto t0 = Clock::now();
  std::size_t ops = 0;
  for (; !budget.done(t0, ops); ++ops) analyst.sweep(rec, series);
  return ops;
}

int analyze(const Args& args, Report& report) {
  const auto state =
      repeat_setup<State>(report, [&] { return setup(args, report); });
  Analyst analyst(*state, report);
  // Traced runs measure half the budget untraced (the end-to-end baseline
  // for the overhead ratio and the consistency checks), then half traced.
  const LoopBudget untraced = args.trace ? LoopBudget{args.seconds / 2, 10}
                                         : LoopBudget{args.seconds, kMinSweeps};
  const auto t0 = Clock::now();
  const std::size_t ops = loop(analyst, untraced, nullptr, "");
  report.set("loop_s", seconds_since(t0));
  report.set("ops", static_cast<double>(ops));
  if (args.trace) {
    SpanRecorder rec;
    obs_begin();
    const std::size_t traced_ops = loop(analyst, {args.seconds / 2, 10}, &rec, "traced.");
    // Per episode, as the span-derived layers are.
    report_obs_layers(report, static_cast<double>(traced_ops * kTimesteps),
                      state->specs);
    obs_end();
    if (!rec.write_chrome(args.chrome_out)) {
      report.fail("cannot write chrome trace " + args.chrome_out);
    }
  }
  report.set_digest(analyst.digest());
  return 0;
}

}  // namespace

int run_analyze_progressive(const Args& args, Report& report) {
  return util::ThreadPool::global()
      .submit([&] { return analyze(args, report); })
      .get();
}

}  // namespace perfbench
