// Tests for the task engine (util::ThreadPool) and for the concurrency
// contract of the refactor/restore pipeline: stress, exception propagation,
// ordered-reduce sequencing, and the bitwise 1-thread-vs-N-thread identity of
// both the stored refactor products and the restored fields.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "adios/bp.hpp"
#include "core/canopus.hpp"
#include "core/geometry_cache.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "tiering/tier_advisor.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "test_support.hpp"

namespace cc = canopus::core;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ca = canopus::adios;
namespace cu = canopus::util;
namespace ct = canopus::test;

namespace {

cm::Field smooth_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

cs::StorageHierarchy three_tiers() {
  return cs::StorageHierarchy({cs::tmpfs_spec(64 << 20), cs::ssd_spec(128 << 20),
                               cs::lustre_spec(1 << 30)});
}

}  // namespace

// -------------------------------------------------------------- task pool --

TEST(ThreadPool, SubmitReturnsTypedResults) {
  cu::ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    futures.push_back(pool.submit([i] { return i * 2; }));
  }
  long total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, 2L * 2000 * 1999 / 2);
}

TEST(ThreadPool, StressSubmitFromManyThreads) {
  // The queue is shared: hammer it from several producer threads at once.
  cu::ThreadPool pool(4);
  std::atomic<long> sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &sum] {
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 500; ++i) {
        futures.push_back(pool.submit([&sum] { sum.fetch_add(1); }));
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum.load(), 4 * 500);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  cu::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  cu::ThreadPool pool(4);
  std::vector<int> hits(10'000, 0);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      },
      /*grain=*/64);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
}

TEST(ThreadPool, ParallelForHonorsGrain) {
  cu::ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(
      0, 1000, [&](std::size_t, std::size_t) { chunks.fetch_add(1); },
      /*grain=*/400);
  // 1000 iterations at >= 400 per chunk cannot split more than 2 ways.
  EXPECT_LE(chunks.load(), 2);
  EXPECT_GE(chunks.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  cu::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 1000,
                                 [](std::size_t lo, std::size_t) {
                                   if (lo > 0) throw std::runtime_error("mid");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A worker blocking on its own pool would deadlock a 1-worker pool; the
  // re-entrancy guard must run the nested loop inline instead.
  cu::ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  auto f = pool.submit([&] {
    pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) ++hits[i];
    });
  });
  f.get();
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, OrderedReduceFeedsAscendingIndices) {
  cu::ThreadPool pool(4);
  std::vector<std::size_t> seen;
  pool.ordered_reduce(
      500,
      [](std::size_t i) {
        // Stagger completion so out-of-order finishes are the common case.
        if (i % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return i * 3;
      },
      [&](std::size_t i, std::size_t result) {
        EXPECT_EQ(result, i * 3);
        seen.push_back(i);
      });
  ASSERT_EQ(seen.size(), 500u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(ThreadPool, OrderedReduceBoundsInflightWindow) {
  cu::ThreadPool pool(2);
  std::atomic<int> inflight{0};
  std::atomic<int> peak{0};
  pool.ordered_reduce(
      64,
      [&](std::size_t i) {
        const int now = inflight.fetch_add(1) + 1;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        inflight.fetch_sub(1);
        return i;
      },
      [](std::size_t, std::size_t) {}, /*window=*/3);
  // No more than `window` maps may ever run or wait enqueued at once.
  EXPECT_LE(peak.load(), 3);
}

TEST(ThreadPool, OrderedReduceMapExceptionSurfacesAtItsIndex) {
  cu::ThreadPool pool(4);
  std::vector<std::size_t> reduced;
  EXPECT_THROW(pool.ordered_reduce(
                   200,
                   [](std::size_t i) -> std::size_t {
                     if (i == 123) throw std::runtime_error("map died");
                     return i;
                   },
                   [&](std::size_t i, std::size_t) { reduced.push_back(i); }),
               std::runtime_error);
  // Everything before the failing index was reduced, in order; nothing after.
  ASSERT_EQ(reduced.size(), 123u);
  for (std::size_t i = 0; i < reduced.size(); ++i) EXPECT_EQ(reduced[i], i);
  // The pool is still usable afterwards (all inflight maps were drained).
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// ----------------------------------------------------------- determinism --

namespace {

cc::RefactorConfig parallel_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 4;
  return config;
}

/// Pipeline options pinning the worker count (0 = the global pool).
canopus::Options threads_options(std::size_t threads) {
  canopus::Options options;
  options.parallel.threads = threads;
  return options;
}

/// Every stored object of `var`, keyed by its container index entry, read
/// back raw (still compressed) from the hierarchy.
std::map<std::string, cu::Bytes> stored_objects(cs::StorageHierarchy& tiers,
                                                const std::string& path,
                                                const std::string& var) {
  ca::BpReader reader(tiers, path);
  std::map<std::string, cu::Bytes> objects;
  for (const auto& record : reader.inq_var(var).blocks) {
    cu::Bytes bytes;
    tiers.read(record.object_key, bytes);
    objects[record.object_key] = std::move(bytes);
  }
  return objects;
}

}  // namespace

TEST(ParallelDeterminism, RefactorProductsBitwiseIdentical1VsN) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers1 = three_tiers();
  const auto report1 =
      ct::write_field(tiers1, "d.bp", "v", mesh, values, parallel_config(),
                      threads_options(1));
  auto tiersN = three_tiers();
  const auto reportN =
      ct::write_field(tiersN, "d.bp", "v", mesh, values, parallel_config(),
                      threads_options(4));

  // Same products, same sizes, same placement — chunk by chunk.
  ASSERT_EQ(report1.products.size(), reportN.products.size());
  for (std::size_t i = 0; i < report1.products.size(); ++i) {
    const auto& a = report1.products[i];
    const auto& b = reportN.products[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.raw_bytes, b.raw_bytes);
    EXPECT_EQ(a.stored_bytes, b.stored_bytes);
    EXPECT_EQ(a.tier, b.tier);
    EXPECT_EQ(a.chunk_tiers, b.chunk_tiers);
  }

  // Same bytes in the container, object by object.
  const auto objects1 = stored_objects(tiers1, "d.bp", "v");
  const auto objectsN = stored_objects(tiersN, "d.bp", "v");
  ASSERT_EQ(objects1.size(), objectsN.size());
  ASSERT_GT(objects1.size(), 0u);
  for (const auto& [key, bytes] : objects1) {
    const auto it = objectsN.find(key);
    ASSERT_NE(it, objectsN.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }
}

TEST(ParallelDeterminism, RestoredFieldsBitwiseIdentical1VsN) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config(), threads_options(4));

  canopus::Options serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  const auto reader1 = ct::open_reader(tiers, "d.bp", "v", nullptr, serial);
  reader1->refine_to(0);

  canopus::Options parallel;
  parallel.parallel.threads = 4;
  const auto readerN = ct::open_reader(tiers, "d.bp", "v", nullptr, parallel);
  readerN->refine_to(0);

  ASSERT_EQ(reader1->values().size(), readerN->values().size());
  for (std::size_t i = 0; i < reader1->values().size(); ++i) {
    // Bitwise: the parallel restore must not even reassociate an addition.
    EXPECT_EQ(reader1->values()[i], readerN->values()[i]) << "vertex " << i;
  }
}

TEST(ParallelDeterminism, RestoredFieldsBitwiseIdenticalWithTracingOn) {
  // Observability must be a pure observer: spans and metrics read wall clocks
  // but never touch task ordering or the fault RNG, so the 1-vs-N bitwise
  // identity has to survive with recording enabled.
  canopus::obs::ObservabilityOptions oopt;
  oopt.enabled = true;
  canopus::obs::install(oopt);

  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers1 = three_tiers();
  ct::write_field(tiers1, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config(), threads_options(1));
  auto tiersN = three_tiers();
  ct::write_field(tiersN, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config(), threads_options(4));
  const auto objects1 = stored_objects(tiers1, "d.bp", "v");
  const auto objectsN = stored_objects(tiersN, "d.bp", "v");
  ASSERT_EQ(objects1.size(), objectsN.size());
  for (const auto& [key, bytes] : objects1) {
    const auto it = objectsN.find(key);
    ASSERT_NE(it, objectsN.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }

  canopus::Options serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  const auto reader1 = ct::open_reader(tiers1, "d.bp", "v", nullptr, serial);
  reader1->refine_to(0);
  canopus::Options parallel;
  parallel.parallel.threads = 4;
  const auto readerN = ct::open_reader(tiersN, "d.bp", "v", nullptr, parallel);
  readerN->refine_to(0);
  ASSERT_EQ(reader1->values().size(), readerN->values().size());
  for (std::size_t i = 0; i < reader1->values().size(); ++i) {
    EXPECT_EQ(reader1->values()[i], readerN->values()[i]) << "vertex " << i;
  }

  // And the run actually recorded: the stages left spans behind.
  EXPECT_FALSE(canopus::obs::TraceRecorder::global().events().empty());
  canopus::obs::set_enabled(false);
}

TEST(ParallelDeterminism, ReadAheadKeepsSimulatedClock) {
  // Prefetched I/O is charged to the step that consumes it, so the simulated
  // retrieval clock must not notice the read-ahead at all.
  const auto mesh = cm::make_annulus_mesh(14, 90, 0.5, 1.0, 0.1, 5);
  auto tiers = three_tiers();
  ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config());
  double io_serial = 0.0;
  std::size_t bytes_serial = 0;
  {
    auto fresh = three_tiers();
    ct::write_field(fresh, "d.bp", "v", mesh, smooth_field(mesh),
                    parallel_config());
    canopus::Options serial;
    serial.parallel.threads = 1;
    serial.parallel.read_ahead = false;
    const auto reader = ct::open_reader(fresh, "d.bp", "v", nullptr, serial);
    reader->refine_to(0);
    io_serial = reader->cumulative().io_seconds;
    bytes_serial = reader->cumulative().bytes_read;
  }
  canopus::Options ahead;  // read_ahead defaults on
  ahead.parallel.threads = 4;
  const auto reader = ct::open_reader(tiers, "d.bp", "v", nullptr, ahead);
  reader->refine_to(0);
  EXPECT_DOUBLE_EQ(reader->cumulative().io_seconds, io_serial);
  EXPECT_EQ(reader->cumulative().bytes_read, bytes_serial);
}

TEST(ParallelDeterminism, GeometryCachePathMatchesOnDemandPath) {
  // The cached spatial orders and mappings must restore the exact same field
  // as the read-on-demand path.
  const auto mesh = cm::make_rect_mesh(40, 40, 1.0, 1.0, 0.1, 13);
  auto tiers = three_tiers();
  ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config());
  const auto cache = cc::GeometryCache::load(tiers, "d.bp", "v");

  const auto plain = ct::open_reader(tiers, "d.bp", "v");
  plain->refine_to(0);
  canopus::Options opts;
  opts.parallel.threads = 4;
  const auto cached = ct::open_reader(tiers, "d.bp", "v", &cache, opts);
  cached->refine_to(0);

  ASSERT_EQ(plain->values().size(), cached->values().size());
  for (std::size_t i = 0; i < plain->values().size(); ++i) {
    EXPECT_EQ(plain->values()[i], cached->values()[i]) << "vertex " << i;
  }
}

// ------------------------------------------- concurrent read sessions --

// K concurrent sessions x N shared pool threads, with the block cache off
// and then on, all restore the exact bytes of the serial uncached reader.
// This extends the 1-vs-N contract to many clients: the cache and its
// single-flight sharing may change who fetches and decodes, never what any
// session sees.
TEST(ParallelDeterminism, ConcurrentSessionsBitwiseIdenticalCacheOnOff) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config(), threads_options(4));

  canopus::Options serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  const auto reference = ct::open_reader(tiers, "d.bp", "v", nullptr, serial);
  reference->refine_to(0);

  // Cache-off first: attaching the cache (second pass) is sticky on `tiers`.
  for (const bool cached : {false, true}) {
    canopus::Options options;
    options.parallel.threads = 4;
    if (cached) {
      canopus::cache::CacheConfig cache_config;
      cache_config.budget_bytes = 32ull << 20;
      cache_config.shards = 4;
      options.cache = cache_config;
    }
    canopus::Pipeline pipeline(tiers, options);

    const std::size_t kSessions = 6;
    std::vector<cm::Field> fields(kSessions);
    std::vector<canopus::Status> statuses(kSessions);
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        canopus::ReadRequest request;
        request.path = "d.bp";
        request.var = "v";
        std::unique_ptr<canopus::ReadSession> session;
        canopus::Status status = pipeline.open_session(request, &session);
        if (status.ok()) status = session->refine_to(0);
        statuses[s] = status;
        if (session) fields[s] = session->values();
      });
    }
    for (auto& c : clients) c.join();

    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_TRUE(statuses[s].ok())
          << "session " << s << " (cache " << (cached ? "on" : "off")
          << "): " << statuses[s].to_string();
      ASSERT_EQ(fields[s].size(), reference->values().size());
      for (std::size_t i = 0; i < fields[s].size(); ++i) {
        ASSERT_EQ(fields[s][i], reference->values()[i])
            << "session " << s << " vertex " << i << " cache "
            << (cached ? "on" : "off");
      }
    }

    if (cached) {
      // Sharing must actually have happened: the sessions together fetched
      // each block far fewer times than 6 sessions x blocks.
      ASSERT_NE(pipeline.block_cache(), nullptr);
      const auto stats = pipeline.block_cache()->stats();
      EXPECT_GT(stats.hits + stats.single_flight_waits, 0u);
    } else {
      EXPECT_EQ(pipeline.block_cache(), nullptr);
    }
  }
}

// ---------------------------------------------- scheduler determinism --

// Serving through the deadline scheduler must be invisible in the bytes: a
// query with an ample budget restores the exact field of a direct read. The
// scheduler decides how far to refine, never how.
TEST(ParallelDeterminism, ScheduledQueryBitwiseMatchesDirectRead) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                  parallel_config(), threads_options(4));

  canopus::Options serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  const auto direct = ct::open_reader(tiers, "d.bp", "v", nullptr, serial);
  direct->refine_to(0);

  canopus::Options options;
  options.parallel.threads = 4;
  canopus::serve::ServeConfig serve;
  serve.workers = 2;
  serve.default_deadline_seconds = 1e9;
  options.serve = serve;
  canopus::Pipeline pipeline(tiers, options);

  canopus::serve::QueryRequest request;
  request.path = "d.bp";
  request.var = "v";
  request.target_level = 0;
  canopus::serve::QueryResult result;
  const canopus::Status status = pipeline.submit_query(request, &result);
  ASSERT_TRUE(status.ok()) << status.to_string();
  ASSERT_EQ(result.achieved_level, 0u);
  ASSERT_EQ(result.values.size(), direct->values().size());
  for (std::size_t i = 0; i < result.values.size(); ++i) {
    ASSERT_EQ(result.values[i], direct->values()[i]) << "vertex " << i;
  }
}

// ------------------------------------------------ fabric determinism --

// Sharding the products across a simulated cluster must be invisible in the
// bytes: a full-accuracy read against any node of an N-node fabric (remote
// chunks resolved through the directory) restores the exact field of the
// 1-node fabric, which in turn matches a plain single-hierarchy read.
TEST(ParallelDeterminism, OneNodeVsFourNodeFabricBitwiseIdentical) {
  namespace cf = canopus::fabric;
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  auto config = parallel_config();
  config.delta_chunks = 8;
  ct::write_field(staging, "d.bp", "v", mesh, smooth_field(mesh), config,
                  threads_options(4));

  canopus::Options serial;
  serial.parallel.threads = 1;
  serial.parallel.read_ahead = false;
  const auto reference = ct::open_reader(staging, "d.bp", "v", nullptr, serial);
  reference->refine_to(0);

  for (const std::size_t nodes : {std::size_t{1}, std::size_t{4}}) {
    cf::FabricOptions fo;
    fo.nodes = nodes;
    cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
    fabric.import_container(staging, "d.bp");
    for (std::size_t home = 0; home < nodes; ++home) {
      canopus::Options opts;
      opts.parallel.threads = 4;
      const auto reader = ct::open_reader(fabric.node(home), "d.bp", "v",
                                          nullptr, opts);
      reader->refine_to(0);
      ASSERT_EQ(reader->values().size(), reference->values().size());
      for (std::size_t i = 0; i < reader->values().size(); ++i) {
        ASSERT_EQ(reader->values()[i], reference->values()[i])
            << "nodes=" << nodes << " home=" << home << " vertex " << i;
      }
    }
    if (nodes > 1) {
      // The identity was not vacuous: some chunks really crossed the wire.
      EXPECT_GT(fabric.stats().remote_reads, 0u);
    }
  }
}

// Scheduler-routed fabric dispatch is equally invisible: a query submitted
// to a scheduler with an attached fabric (shard picked by directory
// affinity, remote chunks through the envelope) returns the same bytes as
// the same scheduler without the fabric, and as a direct read.
TEST(ParallelDeterminism, SchedulerFabricOnOffBitwiseIdentical) {
  namespace cf = canopus::fabric;
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  auto config = parallel_config();
  config.delta_chunks = 8;
  ct::write_field(staging, "d.bp", "v", mesh, smooth_field(mesh), config,
                  threads_options(4));

  cf::FabricOptions fo;
  fo.nodes = 4;
  cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  fabric.import_container(staging, "d.bp");

  canopus::serve::ServeConfig serve;
  serve.default_deadline_seconds = 1e9;
  canopus::serve::QueryScheduler scheduler(staging, serve, {});

  canopus::serve::QueryRequest request;
  request.path = "d.bp";
  request.var = "v";
  request.target_level = 0;

  canopus::serve::QueryResult off;
  ASSERT_TRUE(scheduler.execute(request, &off).ok());

  scheduler.attach_fabric(&fabric);
  canopus::serve::QueryResult on;
  const canopus::Status status = scheduler.execute(request, &on);
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_GT(fabric.stats().local_hits, 0u);

  ASSERT_EQ(on.achieved_level, off.achieved_level);
  ASSERT_EQ(on.values.size(), off.values.size());
  for (std::size_t i = 0; i < on.values.size(); ++i) {
    ASSERT_EQ(on.values[i], off.values[i]) << "vertex " << i;
  }

  // Detach restores the constructor hierarchy for subsequent queries.
  scheduler.attach_fabric(nullptr);
  canopus::serve::QueryResult again;
  ASSERT_TRUE(scheduler.execute(request, &again).ok());
  ASSERT_EQ(again.values.size(), off.values.size());
  for (std::size_t i = 0; i < again.values.size(); ++i) {
    ASSERT_EQ(again.values[i], off.values[i]) << "vertex " << i;
  }
}

// ------------------------------------------------- async I/O determinism --

namespace {

/// Refactor config with enough delta chunks per level that the async ring
/// actually has parallelism to exploit.
cc::RefactorConfig chunked_config() {
  auto config = parallel_config();
  config.delta_chunks = 8;
  return config;
}

}  // namespace

// The async engine may reorder *when* chunk reads and decodes happen, never
// what they produce: a ring-backed reader (with and without read-ahead) must
// restore the exact bytes of the blocking depth-1 reader.
TEST(ParallelDeterminism, AsyncRingRestoreBitwiseIdenticalToBlocking) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto tiers = three_tiers();
  ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                  chunked_config());

  canopus::Options blocking;
  blocking.parallel.threads = 1;
  blocking.parallel.read_ahead = false;
  const auto serial = ct::open_reader(tiers, "d.bp", "v", nullptr, blocking);
  serial->refine_to(0);

  canopus::Options async_sync;  // depth-8 ring, no prefetch
  async_sync.parallel.threads = 4;
  async_sync.parallel.read_ahead = false;
  async_sync.io.depth = 8;
  const auto ring = ct::open_reader(tiers, "d.bp", "v", nullptr, async_sync);
  ring->refine_to(0);

  canopus::Options async_ahead;  // ring-backed read-ahead path
  async_ahead.parallel.threads = 4;
  async_ahead.io.depth = 4;
  async_ahead.io.batch = 2;
  const auto ahead = ct::open_reader(tiers, "d.bp", "v", nullptr, async_ahead);
  ahead->refine_to(0);

  ASSERT_EQ(serial->values().size(), ring->values().size());
  ASSERT_EQ(serial->values().size(), ahead->values().size());
  for (std::size_t i = 0; i < serial->values().size(); ++i) {
    ASSERT_EQ(serial->values()[i], ring->values()[i]) << "vertex " << i;
    ASSERT_EQ(serial->values()[i], ahead->values()[i]) << "vertex " << i;
  }
  EXPECT_EQ(serial->cumulative().bytes_read, ring->cumulative().bytes_read);

  // Regional and backfill reads ride the same ring: an ROI step, a full
  // refine that backfills the chunks it skipped, then the rest of the way.
  // Every step restores the blocking reader's bytes, reads the same volume,
  // and moves partially_refined() the same way.
  auto deep_tiers = three_tiers();
  auto deep_config = chunked_config();
  deep_config.levels = 4;
  ct::write_field(deep_tiers, "r.bp", "v", mesh, smooth_field(mesh),
                  deep_config);
  struct Steps {
    std::vector<cm::Field> values;
    std::vector<std::size_t> bytes;
    std::vector<bool> partial;
  };
  const auto run = [&](const canopus::Options& opts) {
    const auto reader = ct::open_reader(deep_tiers, "r.bp", "v", nullptr, opts);
    Steps steps;
    const auto record = [&](const cc::RetrievalTimings& step) {
      steps.values.push_back(reader->values());
      steps.bytes.push_back(step.bytes_read);
      steps.partial.push_back(reader->partially_refined());
    };
    record(reader->refine_region({{0.3, 0.3}, {1.1, 1.1}}));
    while (!reader->at_full_accuracy()) record(reader->refine());
    return steps;
  };
  const Steps reference = run(blocking);
  ASSERT_EQ(reference.partial, (std::vector<bool>{true, false, false}));
  for (const auto* opts : {&async_sync, &async_ahead}) {
    const Steps steps = run(*opts);
    EXPECT_EQ(steps.partial, reference.partial);
    EXPECT_EQ(steps.bytes, reference.bytes);
    ASSERT_EQ(steps.values.size(), reference.values.size());
    for (std::size_t s = 0; s < steps.values.size(); ++s) {
      ASSERT_TRUE(steps.values[s] == reference.values[s]) << "step " << s;
    }
  }
}

// The blocking path is the depth-1 ring: every step's simulated I/O, bytes
// and retries are bitwise what a serial BpReader::fetch_chunk loop folds —
// for a full, a regional and a backfilling refine, with and without
// read-ahead — while transient tier faults force retries.
TEST(ParallelDeterminism, DepthOneRingChargesTheSerialChunkFold) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  auto config = chunked_config();
  config.levels = 4;
  const cm::Aabb roi{{0.3, 0.3}, {1.1, 1.1}};
  const auto flaky = [](cs::StorageHierarchy& tiers) {
    auto injector = std::make_shared<cs::FaultInjector>(17);
    cs::FaultProfile profile;
    profile.read_error = 0.2;
    for (std::size_t t = 0; t < tiers.tier_count(); ++t) {
      injector->set_profile(t, profile);
    }
    tiers.attach_fault_injector(injector);
    cs::RetryPolicy retry;
    retry.max_attempts = 8;
    tiers.set_retry_policy(retry);
  };

  for (const bool read_ahead : {false, true}) {
    SCOPED_TRACE(read_ahead ? "read-ahead on" : "read-ahead off");
    auto tiers = three_tiers();
    ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh), config);
    const auto geometry = cc::GeometryCache::load(tiers, "d.bp", "v");
    flaky(tiers);
    canopus::Options opts;  // default IoConfig: depth 1
    opts.parallel.threads = 4;
    opts.parallel.read_ahead = read_ahead;
    const auto reader = ct::open_reader(tiers, "d.bp", "v", &geometry, opts);
    std::vector<cc::RetrievalTimings> steps;
    steps.push_back(reader->refine());            // 3 -> 2: every chunk
    steps.push_back(reader->refine_region(roi));  // 2 -> 1: the ROI's chunks
    ASSERT_TRUE(reader->partially_refined());
    steps.push_back(reader->refine());  // backfill level 1, then 1 -> 0
    ASSERT_FALSE(reader->partially_refined());
    ASSERT_TRUE(reader->at_full_accuracy());

    // Reference: the same reads in the same order on an identical,
    // identically faulted hierarchy, one fetch_chunk at a time.
    auto ref_tiers = three_tiers();
    ct::write_field(ref_tiers, "d.bp", "v", mesh, smooth_field(mesh), config);
    flaky(ref_tiers);
    const ca::BpReader bp(ref_tiers, "d.bp");  // the reader's open: metadata,
    bp.read_doubles("v", ca::BlockKind::kBase, 3);  // then the base
    const auto info = bp.inq_var("v");
    const auto all = [&](std::uint32_t level) {
      std::vector<std::uint32_t> ids(
          info.block(ca::BlockKind::kDelta, level)->chunk_count);
      std::iota(ids.begin(), ids.end(), 0u);
      return ids;
    };
    const auto fetch = [&](std::uint32_t level,
                           const std::vector<std::uint32_t>& chunks,
                           cc::RetrievalTimings* step) {
      for (const std::uint32_t c : chunks) {
        const auto raw = bp.fetch_chunk("v", ca::BlockKind::kDelta, level, c);
        if (step == nullptr) continue;  // speculative read: never charged
        step->io_seconds += raw.io.io_sim_seconds;
        step->bytes_read += raw.io.bytes_read;
        step->retries += raw.io.retries;
      }
    };
    std::vector<cc::RetrievalTimings> expected(3);
    fetch(2, all(2), &expected[0]);
    // The read-ahead of level 1, which the regional step then leaves stale.
    if (read_ahead) fetch(1, all(1), nullptr);
    const auto raw_index = bp.read_opaque("v", ca::BlockKind::kChunkIndex, 1);
    cu::ByteReader br(raw_index);
    const auto wanted = cc::ChunkIndex::deserialize(br).intersecting(roi);
    ASSERT_FALSE(wanted.empty());
    fetch(1, wanted, &expected[1]);
    std::vector<std::uint32_t> skipped;  // backfilled from the highest id down
    for (const std::uint32_t c : all(1)) {
      if (!std::binary_search(wanted.begin(), wanted.end(), c)) {
        skipped.insert(skipped.begin(), c);
      }
    }
    fetch(1, skipped, &expected[2]);
    fetch(0, all(0), &expected[2]);

    std::size_t retries = 0;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      SCOPED_TRACE("step " + std::to_string(s));
      EXPECT_EQ(steps[s].io_seconds, expected[s].io_seconds);
      EXPECT_EQ(steps[s].bytes_read, expected[s].bytes_read);
      EXPECT_EQ(steps[s].retries, expected[s].retries);
      retries += steps[s].retries;
    }
    EXPECT_GT(retries, 0u);  // the fault path really ran
  }
}

// SIMD dispatch is a pure speed knob: forcing every vectorized kernel down
// its scalar path must reproduce the stored refactor products and the
// restored field bit for bit.
TEST(ParallelDeterminism, SimdOnOffBitwiseIdentical) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers_scalar = three_tiers();
  cm::Field scalar_restored;
  {
    cu::simd::ScopedForceScalar force_scalar;
    ct::write_field(tiers_scalar, "d.bp", "v", mesh, values, chunked_config(),
                    threads_options(4));
    const auto reader = ct::open_reader(tiers_scalar, "d.bp", "v");
    reader->refine_to(0);
    scalar_restored = reader->values();
  }

  auto tiers_simd = three_tiers();
  ct::write_field(tiers_simd, "d.bp", "v", mesh, values, chunked_config(),
                  threads_options(4));
  const auto objects_scalar = stored_objects(tiers_scalar, "d.bp", "v");
  const auto objects_simd = stored_objects(tiers_simd, "d.bp", "v");
  ASSERT_EQ(objects_scalar.size(), objects_simd.size());
  for (const auto& [key, bytes] : objects_scalar) {
    const auto it = objects_simd.find(key);
    ASSERT_NE(it, objects_simd.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }

  canopus::Options async_opts;
  async_opts.parallel.threads = 4;
  async_opts.io.depth = 8;
  const auto reader = ct::open_reader(tiers_simd, "d.bp", "v", nullptr,
                                      async_opts);
  reader->refine_to(0);
  ASSERT_EQ(scalar_restored.size(), reader->values().size());
  for (std::size_t i = 0; i < scalar_restored.size(); ++i) {
    ASSERT_EQ(scalar_restored[i], reader->values()[i]) << "vertex " << i;
  }
}

// The tier advisor only moves bytes between tiers; with it ticking between
// refinement steps (and the async engine reading from the shuffled
// placement), the restored field must stay bit-identical to a static,
// advisor-less run.
TEST(ParallelDeterminism, TierAdvisorOnOffBitwiseIdentical) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers_static = three_tiers();
  cm::Field baseline;
  {
    ct::write_field(tiers_static, "d.bp", "v", mesh, values, chunked_config());
    const auto reader = ct::open_reader(tiers_static, "d.bp", "v");
    reader->refine_to(0);
    baseline = reader->values();
  }

  auto tiers_adaptive = three_tiers();
  ct::write_field(tiers_adaptive, "d.bp", "v", mesh, values, chunked_config());
  canopus::tiering::TierAdvisor advisor([] {
    canopus::tiering::TieringConfig config;
    config.half_life_seconds = 1e6;
    config.cooldown_ticks = 0;
    config.max_moves_per_tick = 100;
    return config;
  }());
  advisor.watch(tiers_adaptive);
  ASSERT_TRUE(advisor.register_container("d.bp"));
  {
    ca::BpReader meta(tiers_adaptive, "d.bp");
    for (const auto& b : meta.inq_var("v").blocks) {
      if (b.kind == ca::BlockKind::kDelta) {
        advisor.heat().record(b.object_key, 10.0);
      }
    }
  }

  canopus::Options opts;
  opts.parallel.threads = 4;
  opts.io.depth = 8;
  const auto reader = ct::open_reader(tiers_adaptive, "d.bp", "v", nullptr,
                                      opts);
  std::size_t moves = 0;
  moves += advisor.tick();
  reader->refine_to(1);
  moves += advisor.tick();
  reader->refine_to(0);
  ASSERT_GT(moves, 0u);  // placement really changed mid-read

  ASSERT_EQ(baseline.size(), reader->values().size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], reader->values()[i]) << "vertex " << i;
  }
}

// Satellite accounting fix: with the ring active, a step charges the
// simulated wall-clock of the overlapped reads (the makespan), not the sum
// of per-op costs; the blocking reader keeps the exact historical sum.
TEST(ParallelDeterminism, AsyncAccountingChargesMakespanNotSum) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const std::uint32_t depth = 8;

  auto run = [&](std::uint32_t io_depth) {
    auto tiers = three_tiers();
    ct::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                    chunked_config());
    canopus::Options opts;
    opts.parallel.threads = 4;
    opts.parallel.read_ahead = false;
    opts.io.depth = io_depth;
    const auto reader = ct::open_reader(tiers, "d.bp", "v", nullptr, opts);
    reader->refine_to(0);
    return reader->cumulative();
  };

  const auto blocking = run(1);
  const auto async = run(depth);
  const auto async_again = run(depth);

  // Same data volume either way; only the clock model changes.
  EXPECT_EQ(blocking.bytes_read, async.bytes_read);
  // Overlap strictly helps on multi-chunk levels and can never hurt...
  EXPECT_LT(async.io_seconds, blocking.io_seconds);
  // ...but cannot beat perfect depth-way packing of the same ops.
  EXPECT_GE(async.io_seconds, blocking.io_seconds / depth - 1e-12);
  // And the simulated clock is deterministic run to run.
  EXPECT_DOUBLE_EQ(async.io_seconds, async_again.io_seconds);
}
