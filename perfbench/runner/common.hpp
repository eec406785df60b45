#pragma once
// Shared plumbing of the benchmark runner: command-line arguments, the raw
// result every workload fills in, seeded input generation, and the storage
// envelope the workloads run on.
//
// The runner only measures and checks; perfbench/run.py turns the raw result
// (per-operation samples, counters, the Chrome trace) into the reported
// metrics, so every statistic is computed in one place.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/canopus.hpp"
#include "mesh/tri_mesh.hpp"
#include "spans.hpp"
#include "storage/hierarchy.hpp"

namespace perfbench {

using namespace canopus;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;          // raw result JSON
  std::string chrome_out;   // Chrome trace (traced runs)
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;

/// Raw measurements of one run. Samples are per operation; scalars are
/// run-level values (ratios, per-op counter averages).
class Report {
 public:
  void add(const std::string& series, double value);
  void set(const std::string& name, double value);
  /// Records a failed or incorrect operation (counted against `attempted`).
  void fail(const std::string& why);
  void attempt();
  void set_digest(std::uint64_t digest) { digest_ = digest; }

  std::uint64_t failed() const;
  bool write_json(const Args& args, const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> scalars_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::uint64_t digest_ = 0;
};

// --- time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Returns freed heap to the OS and restarts the peak-RSS high-water mark,
/// so peak_rss_mib() covers what the measured loop holds and allocates,
/// not set-up transients.
void reset_peak_rss();
/// Peak resident set since the last reset_peak_rss() (or process start), MiB.
double peak_rss_mib();

/// Closed-loop stopping rule: measure at least `seconds` and at least
/// `min_ops` operations, but never longer than four times `seconds`.
struct LoopBudget {
  double seconds = 10.0;
  std::size_t min_ops = 1;
  bool done(Clock::time_point t0, std::size_t ops) const {
    const double elapsed = seconds_since(t0);
    return (elapsed >= seconds && ops >= min_ops) || elapsed >= 4.0 * seconds;
  }
};

// --- seeds, digests ---------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over the bytes of `values`, chained onto `h`.
std::uint64_t digest(const std::vector<double>& values,
                     std::uint64_t h = 0xcbf29ce484222325ull);
std::uint64_t digest_u64(std::uint64_t value, std::uint64_t h);

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b);

// --- inputs -----------------------------------------------------------------

/// T timestep fields over one fixed mesh; the fields come from the seed.
struct Inputs {
  mesh::TriMesh mesh;
  std::vector<mesh::Field> fields;
  std::vector<double> field_max;  // per timestep: the raster intensity scale
  std::string var;
};

/// XGC1 `dpot` plane (~20.8k vertices): a fresh blob population near the
/// edge every timestep over slowly rotating band-limited turbulence.
Inputs make_xgc_inputs(std::uint64_t seed, std::size_t timesteps);
/// GenASiS `normVec` disk at a quarter of the paper's size (~16k vertices):
/// a breathing accretion shock with rotating low-order modulation.
Inputs make_genasis_inputs(std::uint64_t seed, std::size_t timesteps);

/// Seeded Zipf(s) sampler over [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(double u01) const;

 private:
  std::vector<double> cdf_;
};

// --- storage envelope -------------------------------------------------------

/// Contended production-PFS envelope (per-reader effective stream): the
/// regime the paper's Titan runs were in (see bench/bench_common.hpp).
storage::TierSpec contended_lustre_spec(std::size_t capacity);
/// tmpfs fast tier of `fast_capacity` bytes over the contended Lustre tier.
std::vector<storage::TierSpec> two_tier_specs(std::size_t fast_capacity);

/// Threads for set-up work: the core count, at most 2. Measured loops keep
/// at most two threads busy, so that on a shared host they measure the
/// program rather than the scheduler.
std::size_t setup_threads();

/// Refactoring shared by the XGC1 workloads: 4 levels (8x base), zfp with
/// absolute bound 1e-4, 8 delta chunks, tiered placement.
core::RefactorConfig refactor_config();

/// Pauses process-wide observability for verification work inside a traced
/// loop, so its counters cover only the measured operations.
class ObsPause {
 public:
  ObsPause();
  ~ObsPause();
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool was_enabled_;
};

/// Turns metrics + tracing on with a clean registry (traced loop start).
void obs_begin();
/// Turns them off and drops the library's own span buffers.
void obs_end();
/// Adds the obs-snapshot per-layer values shared by every workload
/// (storage per tier, retries, replica reads, pool, io) to `report`,
/// normalized by `ops` measured operations.
void report_obs_layers(Report& report, double ops,
                       const std::vector<storage::TierSpec>& tiers);

/// Calls fn(0..n-1) on `threads` threads; rethrows the first exception.
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

/// Runs the workload's set-up kSetups times (tearing the previous one
/// down first, untimed) and records each duration in "setup_s"; returns the
/// last state with the peak-RSS mark reset.
template <typename State, typename Make>
std::unique_ptr<State> repeat_setup(Report& report, Make make) {
  std::unique_ptr<State> state;
  for (std::size_t i = 0; i < kSetups; ++i) {
    state.reset();
    const auto t0 = Clock::now();
    state = make();
    report.add("setup_s", seconds_since(t0));
  }
  reset_peak_rss();
  return state;
}

// --- workloads --------------------------------------------------------------

int run_write_campaign(const Args& args, Report& report);
int run_analyze_progressive(const Args& args, Report& report);
int run_serve_shared(const Args& args, Report& report);

}  // namespace perfbench
