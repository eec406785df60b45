// Closed-loop workload-adaptive tiering run (PR 10 acceptance bench).
//
// The paper's placement argument — refactored products should live in the
// storage hierarchy "according to access patterns" — only pays off if the
// loop actually closes: reads feed heat, heat drives placement, placement
// changes the cost of the next read. This bench drives that loop end to end
// and gates on it:
//
//   setup    two containers (a.bp, b.bp) are refactored into a two-tier
//            hierarchy — tmpfs on top, a contended Lustre OST below — and
//            every delta block is pushed down to the slow tier, the
//            pessimal static placement a write-once policy can leave behind;
//   static   a closed loop of full-accuracy ProgressiveReader queries runs
//            against that placement with NO advisor: every delta fetch pays
//            the contended tier, every query, forever;
//   adaptive the same query stream runs with a TierAdvisor watching the
//            hierarchy: the reads themselves heat the delta groups through
//            the storage access listener (no manual heat injection), the
//            advisor ticks between queries, and after the hysteresis band
//            is crossed the hot levels live on tmpfs;
//   shift    halfway through, the workload skews from a.bp to b.bp — the
//            advisor must chase the shift and promote b's deltas too.
//
// Exit is non-zero unless every acceptance criterion holds:
//   * aggregate simulated throughput (queries per simulated I/O second,
//     both phases combined) improves on the static run by at least
//     --min-speedup (default 1.5x, per the roadmap acceptance bar);
//   * every restored field is bitwise-identical between the two runs —
//     placement moved bytes around, never changed them;
//   * the advisor actually promoted something (report().promotions >= 1).
//
// Demotions and per-phase throughput are reported but not gated (decay is
// wall-clock driven, so whether a.bp cools enough to demote mid-run is
// host-speed dependent).
//
// Flags: --queries=12 (per phase) --min-speedup=1.5 [--obs] [--trace-out=f]

#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mesh/generators.hpp"
#include "tiering/tier_advisor.hpp"

using namespace canopus;

namespace {

constexpr std::size_t kSlowTier = 1;

mesh::Field smooth_field(const mesh::TriMesh& mesh, double phase) {
  mesh::Field f(mesh.vertex_count());
  for (mesh::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0 + phase) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

/// Fast tmpfs over a contended Lustre OST — the slow tier costs ~2 ms per
/// round trip and 2 MB/s, so a delta level stranded there dominates a
/// query's simulated clock.
storage::StorageHierarchy make_tiers() {
  return storage::StorageHierarchy(
      {storage::tmpfs_spec(64ull << 20),
       bench::contended_lustre_spec(1ull << 30)});
}

/// The pessimal static placement the advisor is meant to fix: every delta
/// block of `var` down on the contended tier. Everything else (base,
/// geometry, index blocks — the kinds the advisor's policy groups exclude)
/// is pinned to the fast tier, so in both runs the slow tier holds exactly
/// the blocks that auto-tiering is allowed to move.
void strand_deltas(storage::StorageHierarchy& tiers, const std::string& path,
                   const std::string& var) {
  const adios::BpReader reader(tiers, path);
  for (const auto& b : reader.inq_var(var).blocks) {
    const std::size_t target =
        b.kind == adios::BlockKind::kDelta ? kSlowTier : 0;
    tiers.migrate(b.object_key, target);
  }
}

/// Advisor policy for the bench: effectively no decay (the clock that
/// matters is query count, not wall time), a low promote bar so the loop
/// converges within a few queries, and no cooldown.
tiering::TieringConfig bench_policy() {
  tiering::TieringConfig c;
  c.half_life_seconds = 1e6;
  c.promote_threshold = 2.0;
  c.demote_threshold = 0.5;
  c.cooldown_ticks = 0;
  c.max_moves_per_tick = 100;
  return c;
}

struct PassResult {
  double io_seconds = 0.0;                // simulated tier I/O, both phases
  std::vector<mesh::Field> fields;        // one restored field per query
  tiering::TieringReport report;
};

/// One closed-loop pass: `queries` full-accuracy reads of a.bp, then the
/// workload shifts and `queries` reads of b.bp. With `adaptive` set a
/// TierAdvisor watches the hierarchy and ticks between queries; the reads
/// themselves are the only heat source.
PassResult run_pass(const mesh::TriMesh& mesh, const mesh::Field& va,
                    const mesh::Field& vb, std::int64_t queries, bool adaptive,
                    bool verbose) {
  auto tiers = make_tiers();
  core::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 8;
  bench::write_field(tiers, "a.bp", "v", mesh, va, config);
  bench::write_field(tiers, "b.bp", "v", mesh, vb, config);
  strand_deltas(tiers, "a.bp", "v");
  strand_deltas(tiers, "b.bp", "v");

  std::unique_ptr<tiering::TierAdvisor> advisor;
  if (adaptive) {
    advisor = std::make_unique<tiering::TierAdvisor>(bench_policy());
    advisor->watch(tiers);
    advisor->register_container("a.bp");
    advisor->register_container("b.bp");
  }

  PassResult result;
  for (const char* path : {"a.bp", "b.bp"}) {
    for (std::int64_t q = 0; q < queries; ++q) {
      const auto reader = bench::open_reader(tiers, path, "v");
      reader->refine_to(0);
      result.io_seconds += reader->cumulative().io_seconds;
      result.fields.push_back(reader->values());
      const std::size_t moves = advisor ? advisor->tick() : 0;
      if (verbose) {
        std::cout << "    " << path << " q" << q << ": "
                  << reader->cumulative().io_seconds << " sim-s io, " << moves
                  << " moves\n";
      }
    }
  }
  if (advisor) result.report = advisor->report();
  if (verbose) {
    for (const auto& key : tiers.keys_on_tier(kSlowTier)) {
      util::Bytes bytes;
      tiers.read(key, bytes);
      std::cout << "    slow tier holds " << key << " (" << bytes.size()
                << " bytes)\n";
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::int64_t queries = cli.get_int("queries", 12);
  const double min_speedup = cli.get_double("min-speedup", 1.5);
  const bool verbose = cli.has("verbose");
  bench::observability_flags(cli);

  const auto mesh = mesh::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto va = smooth_field(mesh, 0.0);
  const auto vb = smooth_field(mesh, 1.3);

  std::cout << "adaptive tiering closed loop: " << queries
            << " queries/phase, 2 phases (a.bp then b.bp), slow tier = "
            << "contended lustre\n\n";

  const PassResult stat =
      run_pass(mesh, va, vb, queries, /*adaptive=*/false, verbose);
  const PassResult adap =
      run_pass(mesh, va, vb, queries, /*adaptive=*/true, verbose);

  const double total_queries = static_cast<double>(2 * queries);
  const double static_tput =
      stat.io_seconds > 0.0 ? total_queries / stat.io_seconds : 0.0;
  const double adaptive_tput =
      adap.io_seconds > 0.0 ? total_queries / adap.io_seconds : 0.0;
  const double speedup =
      adap.io_seconds > 0.0 ? stat.io_seconds / adap.io_seconds : 0.0;

  std::cout << "static:   " << stat.io_seconds << " sim-s total io, "
            << static_tput << " q/sim-s\n";
  std::cout << "adaptive: " << adap.io_seconds << " sim-s total io, "
            << adaptive_tput << " q/sim-s\n";
  std::cout << "speedup:  " << speedup << "x (gate: >= " << min_speedup
            << "x)\n";
  std::cout << "advisor:  " << adap.report.ticks << " ticks, "
            << adap.report.promotions << " promotions, "
            << adap.report.demotions << " demotions, " << adap.report.groups
            << " groups (" << adap.report.hot_groups << " hot)\n\n";

  bool ok = true;
  auto check = [&](bool condition, const std::string& what) {
    std::cout << (condition ? "  ok: " : "  FAIL: ") << what << "\n";
    ok = ok && condition;
  };

  check(speedup >= min_speedup,
        "adaptive placement beats static by the acceptance bar");
  check(adap.report.promotions >= 1, "the advisor promoted at least once");

  bool identical = stat.fields.size() == adap.fields.size();
  for (std::size_t q = 0; identical && q < stat.fields.size(); ++q) {
    identical = stat.fields[q].size() == adap.fields[q].size();
    for (std::size_t i = 0; identical && i < stat.fields[q].size(); ++i) {
      // Bitwise: placement must never change restored values.
      identical = stat.fields[q][i] == adap.fields[q][i];
    }
  }
  check(identical, "every restored field bitwise-identical across runs");

  bench::print_trace_summary(std::cout);
  if (!ok) {
    std::cout << "\nFAIL: adaptive tiering acceptance criteria not met\n";
    return 1;
  }
  std::cout << "\nall adaptive tiering acceptance criteria hold\n";
  return 0;
}
