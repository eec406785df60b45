#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"

namespace perfbench {

// --- spans ------------------------------------------------------------------

SpanRecorder::ThreadLog& SpanRecorder::local() {
  // One recorder per process, so a plain thread_local cache is enough.
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::scoped_lock lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->tid = static_cast<std::uint32_t>(logs_.size());
  }
  return *log;
}

void SpanRecorder::begin_op(std::uint64_t op) { local().op = op; }

std::vector<Span> SpanRecorder::spans() const {
  std::scoped_lock lock(mu_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans.begin(), log->spans.end());
  }
  return all;
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  os << std::fixed << std::setprecision(3);
  for (const auto& s : spans()) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\""
       << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  auto& log = recorder_->local();
  span_.name = name;
  span_.id = recorder_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = log.open.empty() ? 0 : log.open.back();
  span_.op = log.op;
  span_.tid = log.tid;
  log.open.push_back(span_.id);
  span_.start_ns = recorder_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = recorder_->now_ns();
  auto& log = recorder_->local();
  log.open.pop_back();
  log.spans.push_back(span_);
}

// --- report -----------------------------------------------------------------

void Report::add(const std::string& series, double value) {
  std::scoped_lock lock(mu_);
  samples_[series].push_back(value);
}

void Report::set(const std::string& name, double value) {
  std::scoped_lock lock(mu_);
  scalars_[name] = value;
}

void Report::fail(const std::string& why) {
  std::scoped_lock lock(mu_);
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Report::attempt() {
  std::scoped_lock lock(mu_);
  ++attempted_;
}

std::uint64_t Report::failed() const {
  std::scoped_lock lock(mu_);
  return failed_;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

}  // namespace

bool Report::write_json(const Args& args, const std::string& path) const {
  std::scoped_lock lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << digest_;
  os << "{\"workload\":" << json_string(args.workload)
     << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"digest\":\"" << hex.str() << "\",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? "," : "") << json_string(failures_[i]);
  }
  os << "],\"scalars\":{";
  bool first = true;
  for (const auto& [name, v] : scalars_) {
    os << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  os << "},\"samples\":{";
  first = true;
  for (const auto& [name, values] : samples_) {
    os << (first ? "" : ",") << "\n" << json_string(name) << ":[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? "," : "") << json_number(values[i]);
    }
    os << "]";
    first = false;
  }
  os << "}}\n";
  return static_cast<bool>(os);
}

// --- misc -------------------------------------------------------------------

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM (Linux)
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t digest(const std::vector<double>& values, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  const std::size_t n = values.size() * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest_u64(std::uint64_t value, std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < std::min(n, threads); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        try {
          fn(i);
        } catch (...) {
          std::scoped_lock lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
}

std::size_t Zipf::operator()(double u01) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u01);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

storage::TierSpec contended_lustre_spec(std::size_t capacity) {
  auto spec = storage::lustre_spec(capacity);
  spec.read_bandwidth = 2e6;
  spec.write_bandwidth = 4e6;
  spec.read_latency = 2e-3;
  spec.write_latency = 2e-3;
  return spec;
}

std::vector<storage::TierSpec> two_tier_specs(std::size_t fast_capacity) {
  return {storage::tmpfs_spec(fast_capacity), contended_lustre_spec(8ull << 30)};
}

std::size_t setup_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(2, hw);
}

core::RefactorConfig refactor_config() {
  core::RefactorConfig config;
  config.levels = 4;
  config.codec = "zfp";
  config.error_bound = 1e-4;
  config.delta_chunks = 8;
  config.tiered_placement = true;
  return config;
}

ObsPause::ObsPause() : was_enabled_(obs::enabled()) {
  if (was_enabled_) obs::set_enabled(false);
}
ObsPause::~ObsPause() {
  if (was_enabled_) obs::set_enabled(true);
}

void obs_begin() {
  obs::ObservabilityOptions options;
  options.enabled = true;  // no trace_path: the library's spans stay in memory
  obs::install(options);
}

void obs_end() {
  obs::set_enabled(false);
  obs::TraceRecorder::global().clear();
}

void report_obs_layers(Report& report, double ops,
                       const std::vector<storage::TierSpec>& tiers) {
  const auto snap = obs::MetricsRegistry::global().snapshot();
  auto count = [&](const std::string& name) -> double {
    const auto* e = snap.find(name);
    return e ? static_cast<double>(e->count) : 0.0;
  };
  const double n = std::max(ops, 1.0);
  for (const auto& spec : tiers) {
    const std::string p = "storage." + spec.name + ".";
    const auto* read_us = snap.find(p + "read_us");
    const double read_sim = read_us ? read_us->sum * 1e-6 : 0.0;
    // Writes are charged by the tier's linear cost model (the library keeps
    // no write-time histogram): latency per op + bytes / bandwidth.
    const double write_sim = count(p + "writes") * spec.write_latency +
                             count(p + "write_bytes") / spec.write_bandwidth;
    report.set(p + "reads_per_op", count(p + "reads") / n);
    report.set(p + "read_bytes_per_op", count(p + "read_bytes") / n);
    report.set(p + "write_bytes_per_op", count(p + "write_bytes") / n);
    report.set(p + "sim_s_per_op", (read_sim + write_sim) / n);
  }
  report.set("storage.retries", count("hierarchy.retries"));
  report.set("storage.replica_reads", count("hierarchy.replica_fallbacks"));
  report.set("pool.tasks_per_op", count("pool.tasks") / n);
  const auto* wait = snap.find("pool.task_wait_us");
  report.set("pool.task_wait_p50_us", wait ? wait->p50 : 0.0);
  const auto* inflight = snap.find("io.inflight");
  report.set("io.inflight_max",
             inflight ? static_cast<double>(inflight->gauge_max) : 0.0);
  report.set("io.batches_per_query", count("io.submit_us") / n);
}

}  // namespace perfbench
