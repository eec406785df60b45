// serve_shared: four analyst threads call Pipeline::submit_query on one
// pipeline (scheduler workers = 2, sharing one pool thread), closed loop, over
// T GenASiS containers sharded across a 2-node fabric (Morton partition,
// eviction providers off) with a BlockCache per node sized below the
// working set.
//
// Each client draws the timestep from a seeded Zipf (every client's ranking
// rotated two timesteps from the previous one's) and the target from
// {full accuracy, one level above base, rmse_threshold}; client 0 runs at
// priority 8. I/O runs on the ring (depth 8) over 8 delta chunks. The
// deadline is far above any query's cost, so the level reached never
// depends on host load. Every result must be bitwise-identical to a
// reference Pipeline::read at the same level, computed in set-up from the
// unsharded staging copy.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common.hpp"
#include "fabric/fabric.hpp"
#include "serve/query_scheduler.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTimesteps = 8;
constexpr std::size_t kClients = 4;
constexpr std::size_t kNodes = 2;
constexpr std::size_t kMinQueries = 1000;  // p99 needs 10 samples beyond it
constexpr std::size_t kDigestQueries = 32; // per client
constexpr double kZipfS = 1.1;
/// Threshold queries refine until the inter-level RMS change drops below it.
constexpr double kRmseThreshold = 0.03;
constexpr double kDeadlineSeconds = 1e3;
/// Per-node cache budget as a share of the (per node) working set.
constexpr double kCacheShare = 0.5;

std::string path_of(std::size_t t) {
  return std::string("g").append(std::to_string(t)).append(".bp");
}

struct State {
  Inputs in;
  std::vector<storage::TierSpec> specs;
  std::unique_ptr<fabric::Fabric> cluster;
  std::unique_ptr<Pipeline> pipeline;
  std::vector<core::GeometryCache> geometry;
  /// reference[t][level]: digest of Pipeline::read(target_level = level).
  std::vector<std::vector<std::uint64_t>> reference;
  std::vector<std::size_t> popularity;  // Zipf rank -> timestep
  std::uint32_t levels = 0;
};

/// Counters of every layer the loop goes through, for per-loop deltas.
struct Counters {
  cache::BlockCache::Stats cache;
  fabric::Fabric::Stats fabric;
  serve::QueryScheduler::Stats serve;

  static Counters take(State& s) {
    Counters c;
    for (std::size_t i = 0; i < s.cluster->node_count(); ++i) {
      if (auto* cache = s.cluster->node_cache(i)) {
        const auto st = cache->stats();
        c.cache.hits += st.hits;
        c.cache.misses += st.misses;
        c.cache.evictions += st.evictions;
        c.cache.single_flight_waits += st.single_flight_waits;
      }
    }
    c.fabric = s.cluster->stats();
    c.serve = s.pipeline->query_scheduler().stats();
    return c;
  }
};

class Server {
 public:
  Server(State& state, Report& report, std::uint64_t seed)
      : s_(state), report_(report), zipf_(kTimesteps, kZipfS) {
    for (std::size_t c = 0; c < kClients; ++c) {
      rngs_.emplace_back(derive_seed(seed, 100 + c));
      digests_.push_back(0xcbf29ce484222325ull);
      served_.push_back(0);
    }
  }

  /// Runs the four clients until the budget is met; returns queries served.
  std::size_t loop(const LoopBudget& budget, SpanRecorder* rec,
                   const std::string& series) {
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> clients;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (!stop.load(std::memory_order_relaxed)) {
          query(c, rec, series);
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    while (!budget.done(t0, done.load(std::memory_order_relaxed))) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    for (auto& t : clients) t.join();
    report_.set(series + "loop_s", seconds_since(t0));
    return done.load();
  }

  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (auto d : digests_) h = digest_u64(d, h);
    return h;
  }

 private:
  void query(std::size_t c, SpanRecorder* rec, const std::string& series) {
    auto& rng = rngs_[c];
    // Each client's Zipf ranking starts two timesteps further along the
    // seeded popularity order: the analysts focus on different timesteps,
    // so the hot set (and the cost it sets) spans the campaign.
    const std::size_t t =
        s_.popularity[(zipf_(rng.uniform()) + 2 * c) % kTimesteps];
    const auto kind = rng.next_u64() % 3;
    serve::QueryRequest req;
    req.path = path_of(t);
    req.var = s_.in.var;
    req.target_level = kind == 1 ? s_.levels - 2 : 0;  // 1 = one above base
    if (kind == 2) req.rmse_threshold = kRmseThreshold;
    req.deadline_seconds = kDeadlineSeconds;
    req.priority = c == 0 ? 8 : 0;
    req.geometry = &s_.geometry[t];

    const std::size_t k = served_[c]++;
    serve::QueryResult res;
    Status st;
    report_.attempt();
    if (rec != nullptr) rec->begin_op(((c + 1) << 32) | k);
    const auto t0 = Clock::now();
    {
      ScopedSpan span(rec, "query");
      ScopedSpan s(rec, "serve.submit_query");
      st = s_.pipeline->submit_query(req, &res);
    }
    const double wall_ms = ms_since(t0);

    if (!st.ok() || st.degraded) {
      return report_.fail("query " + req.path + ": " + st.to_string());
    }
    if (kind != 2 && res.achieved_level != req.target_level) {
      return report_.fail("query " + req.path + " reached level " +
                          std::to_string(res.achieved_level) + ", asked " +
                          std::to_string(req.target_level));
    }
    const std::uint64_t d = perfbench::digest(res.values);
    if (res.achieved_level >= s_.levels ||
        d != s_.reference[t][res.achieved_level]) {
      return report_.fail("query " + req.path + " at level " +
                          std::to_string(res.achieved_level) +
                          " differs from the reference read");
    }
    if (k < kDigestQueries) digests_[c] = digest_u64(d, digests_[c]);

    const auto& tm = res.timings;
    report_.add(series + "op_ms", wall_ms);
    report_.add(series + "sim_io_ms", tm.io_seconds * 1e3);
    report_.add(series + "queue_ms", res.queue_seconds * 1e3);
    report_.add(series + "exec_ms", wall_ms - res.queue_seconds * 1e3);
    report_.add(series + "plan_match", res.planned_level == res.achieved_level ? 1.0 : 0.0);
    report_.add(series + "compress.decode_ms", tm.decompress_seconds * 1e3);
    report_.add(series + "core.restore_level_ms", tm.restore_seconds * 1e3);
    report_.add(series + "decode_mib", static_cast<double>(tm.bytes_read) / (1 << 20));
  }

  State& s_;
  Report& report_;
  Zipf zipf_;
  std::vector<util::Rng> rngs_;
  std::vector<std::uint64_t> digests_;
  std::vector<std::size_t> served_;
};

std::unique_ptr<State> setup(const Args& args, Report& report) {
  auto s = std::make_unique<State>();
  s->in = make_genasis_inputs(args.seed, kTimesteps);
  const auto config = refactor_config();
  s->levels = static_cast<std::uint32_t>(config.levels);

  // Refactor every timestep into its own unconstrained staging hierarchy
  // (timesteps in parallel, one worker each: products are bitwise-identical
  // for any thread count), then read every level back from it: the bitwise
  // references.
  std::vector<std::unique_ptr<storage::StorageHierarchy>> staging(kTimesteps);
  s->reference.resize(kTimesteps);
  std::vector<WriteResult> written(kTimesteps);
  parallel_for(kTimesteps, setup_threads(), [&](std::size_t t) {
    staging[t] = std::make_unique<storage::StorageHierarchy>(
        std::vector<storage::TierSpec>{storage::tmpfs_spec(1ull << 30)});
    Options options;
    options.parallel.threads = 1;
    Pipeline writer(*staging[t], options);
    WriteRequest wreq;
    wreq.path = path_of(t);
    wreq.var = s->in.var;
    wreq.mesh = &s->in.mesh;
    wreq.values = &s->in.fields[t];
    wreq.config = config;
    const auto st = writer.write(wreq, &written[t]);
    if (!st.ok()) throw Error("set-up write failed: " + st.to_string());
    for (std::uint32_t l = 0; l < s->levels; ++l) {
      ReadRequest rreq;
      rreq.path = wreq.path;
      rreq.var = s->in.var;
      rreq.target_level = l;
      ReadResult read;
      const auto rs = writer.read(rreq, &read);
      if (!rs.ok() || read.level != l) {
        throw Error("reference read failed: " + rs.to_string());
      }
      s->reference[t].push_back(perfbench::digest(read.values));
    }
  });
  double raw = 0, stored = 0, base_raw = 0, base_stored = 0, delta_raw = 0,
         delta_stored = 0, decoded = 0;
  for (std::size_t t = 0; t < kTimesteps; ++t) {
    const auto& r = written[t].report;
    raw += static_cast<double>(s->in.fields[t].size() * sizeof(double));
    stored += static_cast<double>(r.total_stored_bytes());
    for (const auto& p : r.products) {
      const bool base = p.name == "base";
      (base ? base_raw : delta_raw) += static_cast<double>(p.raw_bytes);
      (base ? base_stored : delta_stored) += static_cast<double>(p.stored_bytes);
      decoded += static_cast<double>(p.raw_bytes);
    }
  }
  report.set("stored_ratio", stored / raw);
  report.set("compress.ratio.base", base_raw / base_stored);
  report.set("compress.ratio.delta", delta_raw / delta_stored);

  // The fabric: every node's fast tier holds its shard, its replicas and the
  // replicated geometry, so placement is the same for every timestep and
  // seed; the per-node caches decide what a query pays.
  s->specs = two_tier_specs(1ull << 30);
  fabric::FabricOptions fo;
  fo.nodes = kNodes;
  fo.partition = fabric::Partition::kMortonRange;
  fo.eviction_high = 0.0;  // providers off
  s->cluster = std::make_unique<fabric::Fabric>(fo, s->specs);
  for (std::size_t t = 0; t < kTimesteps; ++t) {
    s->cluster->import_container(*staging[t], path_of(t));
  }
  staging.clear();
  // Working set: compressed blobs plus decoded arrays of every product.
  cache::CacheConfig cc;
  cc.budget_bytes = static_cast<std::size_t>(
      kCacheShare * (stored + decoded) / static_cast<double>(kNodes));
  s->cluster->attach_node_caches(cc);
  for (std::size_t t = 0; t < kTimesteps; ++t) {
    s->geometry.push_back(
        core::GeometryCache::load(s->cluster->node(0), path_of(t), s->in.var));
  }

  Options options;
  options.parallel.threads = 1;  // 2 workers sharing one pool thread
  options.io.depth = 8;
  serve::ServeConfig sc;
  sc.workers = 2;
  sc.queue_limit = 32;
  sc.default_deadline_seconds = kDeadlineSeconds;
  options.serve = sc;
  s->pipeline = std::make_unique<Pipeline>(s->cluster->node(0), options);
  if (!s->pipeline->attach_fabric(s->cluster.get()).ok()) {
    throw Error("attach_fabric failed");
  }

  util::Rng rng(derive_seed(args.seed, 20));
  for (std::size_t t = 0; t < kTimesteps; ++t) s->popularity.push_back(t);
  for (std::size_t i = kTimesteps - 1; i > 0; --i) {
    std::swap(s->popularity[i], s->popularity[rng.next_u64() % (i + 1)]);
  }

  // Warm-up pass: every timestep once at full accuracy.
  for (std::size_t t = 0; t < kTimesteps; ++t) {
    serve::QueryRequest req;
    req.path = path_of(t);
    req.var = s->in.var;
    req.geometry = &s->geometry[t];
    req.deadline_seconds = kDeadlineSeconds;
    serve::QueryResult res;
    const auto st = s->pipeline->submit_query(req, &res);
    if (!st.ok()) throw Error("warm-up query failed: " + st.to_string());
  }
  return s;
}

void report_layers(Report& report, const Counters& a, const Counters& b,
                   double queries) {
  const double n = std::max(queries, 1.0);
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  report.set("cache.hit_ratio", hits / std::max(hits + misses, 1.0));
  report.set("cache.evictions_per_query",
             static_cast<double>(b.cache.evictions - a.cache.evictions) / n);
  report.set("cache.single_flight_waits",
             static_cast<double>(b.cache.single_flight_waits -
                                 a.cache.single_flight_waits) / n);
  const double remote =
      static_cast<double>(b.fabric.remote_reads - a.fabric.remote_reads);
  const double local = static_cast<double>(b.fabric.local_hits - a.fabric.local_hits);
  report.set("fabric.remote_ratio", remote / std::max(remote + local, 1.0));
  report.set("fabric.failed_remote_reads",
             static_cast<double>(b.fabric.failed_remote_reads -
                                 a.fabric.failed_remote_reads));
  report.set("serve.shed", static_cast<double>(b.serve.shed - a.serve.shed));
}

}  // namespace

int run_serve_shared(const Args& args, Report& report) {
  auto state =
      repeat_setup<State>(report, [&] { return setup(args, report); });
  Server server(*state, report, args.seed);
  // Traced runs measure half the budget untraced (the end-to-end baseline
  // for the overhead ratio), then half traced.
  const LoopBudget untraced = args.trace ? LoopBudget{args.seconds / 2, 100}
                                         : LoopBudget{args.seconds, kMinQueries};
  const std::size_t ops = server.loop(untraced, nullptr, "");
  report.set("ops", static_cast<double>(ops));
  if (args.trace) {
    SpanRecorder rec;
    obs_begin();
    const auto before = Counters::take(*state);
    const std::size_t traced_ops =
        server.loop({args.seconds / 2, 100}, &rec, "traced.");
    const double n = static_cast<double>(traced_ops);
    report_layers(report, before, Counters::take(*state), n);
    report_obs_layers(report, n, state->specs);
    obs_end();
    if (!rec.write_chrome(args.chrome_out)) {
      report.fail("cannot write chrome trace " + args.chrome_out);
    }
  }
  report.set_digest(server.digest());
  return 0;
}

}  // namespace perfbench
