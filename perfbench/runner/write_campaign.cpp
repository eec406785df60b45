// write_campaign: one producer refactors and writes XGC1 `dpot` timesteps
// through Pipeline::write(mesh, values), closed loop.
//
// Each write goes to a fresh two-tier hierarchy (tmpfs sized to the raw
// field over the contended Lustre stream), so placement is identical for
// every write and memory stays flat however long the loop runs. After each
// write, untimed, the container is read back to full accuracy and checked
// against the input within levels x error_bound.
//
// Traced: each write is split into mesh::build_cascade and
// Pipeline::write(prebuilt cascade), and a layer probe then times the
// benchmark's own calls to core::build_mapping, core::compute_delta and the
// codec's encode on the same cascade.

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "common.hpp"
#include "compress/codec.hpp"
#include "core/delta.hpp"
#include "mesh/cascade.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTimesteps = 8;
constexpr std::size_t kMinWrites = 40;    // p75 needs 10 samples beyond it
constexpr std::size_t kDigestWrites = 16; // writes folded into the digest

struct State {
  Inputs in;
  std::size_t raw_bytes = 0;
  Options options;
};

class Campaign {
 public:
  Campaign(const State& state, Report& report)
      : s_(state), report_(report), config_(refactor_config()),
        pool_(1) {}

  /// One closed-loop write of the next timestep; `rec` non-null = traced.
  void write(SpanRecorder* rec, const std::string& series) {
    const std::size_t op = next_op_++;
    const std::size_t t = op % kTimesteps;
    const auto& field = s_.in.fields[t];
    storage::StorageHierarchy tiers(two_tier_specs(s_.raw_bytes));
    Pipeline pipeline(tiers, s_.options);
    WriteRequest wreq;
    wreq.path = std::string("ts").append(std::to_string(t)).append(".bp");
    wreq.var = s_.in.var;
    wreq.config = config_;
    WriteResult result;
    Status status;
    mesh::Cascade cascade;
    std::vector<mesh::DecimateResult> passes;

    report_.attempt();
    const auto t0 = Clock::now();
    if (rec == nullptr) {
      wreq.mesh = &s_.in.mesh;
      wreq.values = &field;
      status = pipeline.write(wreq, &result);
    } else {
      rec->begin_op(op + 1);
      ScopedSpan span(rec, "write");
      {
        ScopedSpan s(rec, "mesh.build_cascade");
        mesh::CascadeOptions co;
        co.levels = config_.levels;
        co.step = config_.step;
        co.decimate = config_.decimate;
        cascade = mesh::build_cascade(s_.in.mesh, field, co, &passes);
      }
      wreq.cascade = &cascade;
      ScopedSpan s(rec, "core.write_from_cascade");
      status = pipeline.write(wreq, &result);
    }
    const double op_ms = ms_since(t0);
    if (!status.ok()) {
      report_.fail("write " + wreq.path + ": " + status.to_string());
      return;
    }
    report_.add(series + "op_ms", op_ms);
    report_.add(series + "sim_io_ms", result.report.phases.get("io") * 1e3);
    report_.add(series + "stored_ratio",
                static_cast<double>(result.report.total_stored_bytes()) /
                    static_cast<double>(s_.raw_bytes));
    record_products(result.report);
    if (rec != nullptr) {
      double collapses = 0.0;
      for (const auto& p : passes) collapses += static_cast<double>(p.collapses);
      report_.add("mesh.collapses_per_write", collapses);
      probe_layers(cascade, rec);
    }
    verify(pipeline, wreq.path, t, op);
  }

  /// Products of every checked write folded in order, first kDigestWrites.
  std::uint64_t digest() const { return digest_; }

 private:
  void record_products(const core::RefactorReport& r) {
    for (const auto& p : r.products) {
      const bool base = p.name == "base";
      (base ? base_raw_ : delta_raw_) += static_cast<double>(p.raw_bytes);
      (base ? base_stored_ : delta_stored_) += static_cast<double>(p.stored_bytes);
    }
    report_.set("compress.ratio.base", base_raw_ / std::max(base_stored_, 1.0));
    report_.set("compress.ratio.delta", delta_raw_ / std::max(delta_stored_, 1.0));
  }

  /// The benchmark's own calls into the write-side layers, on the cascade
  /// this write just stored (untimed for the end-to-end metrics; obs paused
  /// so the library counters cover only the writes).
  void probe_layers(const mesh::Cascade& cascade, SpanRecorder* rec) {
    ObsPause pause;
    ScopedSpan probe(rec, "layer_probe");
    const auto codec = compress::make_codec(config_.codec);
    std::size_t sink = 0;
    for (std::size_t l = 0; l + 1 < cascade.level_count(); ++l) {
      const auto& fine = cascade.levels[l];
      const auto& coarse = cascade.levels[l + 1];
      core::VertexMapping mapping;
      {
        ScopedSpan s(rec, "core.build_mapping");
        mapping = core::build_mapping(fine.mesh, coarse.mesh, &pool_);
      }
      mesh::Field delta;
      {
        ScopedSpan s(rec, "core.compute_delta");
        delta = core::compute_delta(coarse.mesh, coarse.values, fine.values,
                                    mapping, config_.estimate, &pool_);
      }
      ScopedSpan s(rec, "compress.encode");
      sink += codec->encode(delta, config_.error_bound).size();
    }
    {
      ScopedSpan s(rec, "compress.encode");
      sink += codec->encode(cascade.base().values, config_.error_bound).size();
    }
    if (sink == 0) report_.fail("layer probe encoded nothing");
  }

  /// Untimed read-back: full accuracy within levels x error_bound, and the
  /// same bits for a timestep whichever write path (traced or not) stored it.
  void verify(Pipeline& pipeline, const std::string& path, std::size_t t,
              std::size_t op) {
    ObsPause pause;
    ReadRequest rreq;
    rreq.path = path;
    rreq.var = s_.in.var;
    ReadResult read;
    const auto status = pipeline.read(rreq, &read);
    const double bound =
        static_cast<double>(config_.levels) * config_.error_bound;
    if (!status.ok() || read.level != 0) {
      report_.fail("read-back " + path + ": " + status.to_string());
      return;
    }
    const double err = max_abs_diff(read.values, s_.in.fields[t]);
    if (!(err <= bound)) {
      report_.fail("read-back " + path + " max-abs error " +
                   std::to_string(err) + " > " + std::to_string(bound));
      return;
    }
    const std::uint64_t d = perfbench::digest(read.values);
    const auto [it, inserted] = by_timestep_.emplace(t, d);
    if (!inserted && it->second != d) {
      report_.fail("read-back " + path + " differs between writes");
    }
    if (op < kDigestWrites) digest_ = digest_u64(d, digest_);
  }

  const State& s_;
  Report& report_;
  core::RefactorConfig config_;
  util::ThreadPool pool_;
  std::size_t next_op_ = 0;
  std::map<std::size_t, std::uint64_t> by_timestep_;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  double base_raw_ = 0, base_stored_ = 0, delta_raw_ = 0, delta_stored_ = 0;
};

std::unique_ptr<State> setup(const Args& args) {
  auto s = std::make_unique<State>();
  s->in = make_xgc_inputs(args.seed, kTimesteps);
  s->raw_bytes = s->in.mesh.vertex_count() * sizeof(double);
  s->options.parallel.threads = 1;
  // Warm-up pass: one untimed write so allocators and pools are hot.
  storage::StorageHierarchy tiers(two_tier_specs(s->raw_bytes));
  Pipeline pipeline(tiers, s->options);
  WriteRequest wreq;
  wreq.path = "warmup.bp";
  wreq.var = s->in.var;
  wreq.mesh = &s->in.mesh;
  wreq.values = &s->in.fields[0];
  wreq.config = refactor_config();
  const auto status = pipeline.write(wreq);
  if (!status.ok()) throw Error("warm-up write failed: " + status.to_string());
  return s;
}

std::size_t loop(Campaign& campaign, const LoopBudget& budget,
                 SpanRecorder* rec, const std::string& series) {
  const auto t0 = Clock::now();
  std::size_t ops = 0;
  for (; !budget.done(t0, ops); ++ops) campaign.write(rec, series);
  return ops;
}

}  // namespace

int run_write_campaign(const Args& args, Report& report) {
  const auto state = repeat_setup<State>(report, [&] { return setup(args); });
  Campaign campaign(*state, report);
  // Traced runs measure half the budget untraced (the end-to-end baseline
  // for the overhead ratio and the consistency checks), then half traced.
  const LoopBudget untraced = args.trace ? LoopBudget{args.seconds / 2, 10}
                                         : LoopBudget{args.seconds, kMinWrites};
  const auto t0 = Clock::now();
  const std::size_t ops = loop(campaign, untraced, nullptr, "");
  report.set("loop_s", seconds_since(t0));
  report.set("ops", static_cast<double>(ops));
  if (args.trace) {
    SpanRecorder rec;
    obs_begin();
    const std::size_t traced_ops =
        loop(campaign, {args.seconds / 2, 10}, &rec, "traced.");
    report_obs_layers(report, static_cast<double>(traced_ops),
                      two_tier_specs(state->raw_bytes));
    obs_end();
    if (!rec.write_chrome(args.chrome_out)) {
      report.fail("cannot write chrome trace " + args.chrome_out);
    }
  }
  report.set_digest(campaign.digest());
  return 0;
}

}  // namespace perfbench
