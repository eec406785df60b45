// Elastic-topology suite (PR 8): runtime attach/detach of fabric nodes and
// storage tiers, incremental directory rebalancing with background
// migration, residency sets, the canopus::Options consolidation, and the
// Pipeline control plane (attach_node/drain/detach/rebalance/topology).
//
// The two regression pins ISSUE.md asks for live here:
//   * a query planned after detach_node never routes to the removed node
//     (Serve.QueryAfterDetachNeverRoutesToRemovedNode);
//   * a post-rebalance read cannot be served from a stale owner's retired
//     copy (Fabric.AttachNodeMigratesExactlyOwnerChangedChunks asserts the
//     losing node's copy is gone after cutover and reads stay bitwise-
//     identical).
//
// Randomized cases derive their seeds from CANOPUS_TEST_SEED (see
// tests/test_support.hpp) and print the seed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/canopus.hpp"
#include "core/geometry_cache.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "core/topology.hpp"
#include "fabric/chunk_directory.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "serve/query_scheduler.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"

namespace cc = canopus::core;
namespace cf = canopus::fabric;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace cv = canopus::serve;
namespace ct = canopus::test;

using canopus::Status;
using canopus::StatusCode;
using canopus::util::Bytes;

namespace {

cm::Field smooth_field(const cm::TriMesh& mesh) {
  cm::Field f(mesh.vertex_count());
  for (cm::VertexId v = 0; v < mesh.vertex_count(); ++v) {
    const auto p = mesh.vertex(v);
    f[v] = std::sin(p.x * 2.0) * std::cos(p.y * 3.0) + 0.2 * p.y;
  }
  return f;
}

cc::RefactorConfig refactor_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 8;
  return config;
}

/// A refactored dataset staged in an unconstrained hierarchy, ready to be
/// imported into fabrics.
struct Staged {
  cs::StorageHierarchy staging{{cs::tmpfs_spec(256 << 20)}};
  cm::TriMesh mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);

  Staged() {
    ct::write_field(staging, "d.bp", "v", mesh, smooth_field(mesh),
                    refactor_config());
  }
};

std::vector<cs::TierSpec> roomy_node_tiers() {
  return {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)};
}

bool holds(const cs::StorageHierarchy& h, const std::string& key) {
  for (std::size_t t = 0; t < h.tier_count(); ++t) {
    if (h.tier(t).contains(key)) return true;
  }
  return false;
}

Bytes bytes_of(const std::string& text) {
  Bytes out(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    out[i] = static_cast<std::byte>(text[i]);
  }
  return out;
}

std::map<std::string, std::uint32_t> owners_of(const cf::ChunkDirectory& dir) {
  std::map<std::string, std::uint32_t> out;
  for (const auto& e : dir.snapshot()) out[e.key] = e.owner;
  return out;
}

}  // namespace

// --------------------------------------------- directory: incremental plans

TEST(ElasticDirectory, AttachPlanIsExactlyTheOwnerChangedEntries) {
  cf::ChunkDirectory dir(2, cf::Partition::kMortonRange);
  std::map<std::string, std::uint32_t> chunk_of;
  for (std::uint32_t c = 0; c < 16; ++c) {
    const std::string key = "d.bp/v/delta/1/" + std::to_string(c);
    chunk_of[key] = c;
    dir.assign(key, c, 16, 100 + c);
  }
  const auto before = owners_of(dir);
  const auto epoch_before = dir.epoch();

  const cf::RebalancePlan plan = dir.attach_node(2);
  EXPECT_EQ(plan.epoch, dir.epoch());
  EXPECT_GT(dir.epoch(), epoch_before);
  ASSERT_FALSE(plan.moves.empty());

  // Exactly the entries whose recomputed owner differs — and nothing else.
  std::set<std::string> planned;
  for (const auto& mv : plan.moves) {
    planned.insert(mv.key);
    EXPECT_EQ(mv.from, before.at(mv.key));
    EXPECT_NE(mv.to, mv.from);
    EXPECT_EQ(mv.to, dir.owner_for(mv.key, chunk_of.at(mv.key), 16))
        << "plan target must match the live partition for " << mv.key;
  }
  for (const auto& [key, owner] : before) {
    const bool changed = dir.owner_for(key, chunk_of.at(key), 16) != owner;
    EXPECT_EQ(planned.count(key) > 0, changed) << key;
    // Owners are not flipped by planning: reads keep resolving to the old
    // owner until the fabric commits each copy.
    EXPECT_EQ(dir.lookup(key)->owner, owner) << key;
  }

  // Cutover is per-key and immediate.
  const auto& mv = plan.moves.front();
  dir.commit_move(mv.key, mv.to);
  EXPECT_EQ(dir.lookup(mv.key)->owner, mv.to);
}

TEST(ElasticDirectory, DetachStopsNewPlacementButKeepsOldResolvable) {
  cf::ChunkDirectory dir(3, cf::Partition::kMortonRange);
  std::map<std::string, std::uint32_t> chunk_of;
  for (std::uint32_t c = 0; c < 12; ++c) {
    const std::string key = "d.bp/v/delta/1/" + std::to_string(c);
    chunk_of[key] = c;
    dir.assign(key, c, 12, 64);
  }
  const auto before = owners_of(dir);

  const cf::RebalancePlan plan = dir.detach_node(1);
  EXPECT_FALSE(dir.is_active(1));
  EXPECT_EQ(dir.active_nodes(), (std::vector<std::uint32_t>{0, 2}));

  // Every entry node 1 owned is planned off it; until commit, lookups still
  // find the old copy, but the replica never points at the detached node.
  for (const auto& [key, owner] : before) {
    const auto loc = dir.lookup(key);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->owner, owner);
    if (loc->replica.has_value()) {
      EXPECT_NE(*loc->replica, 1u);
    }
    EXPECT_NE(dir.owner_for(key, chunk_of.at(key), 12), 1u);
  }
  std::size_t owned_by_victim = 0;
  for (const auto& [key, owner] : before) {
    if (owner == 1) ++owned_by_victim;
  }
  ASSERT_GT(owned_by_victim, 0u);
  std::size_t planned_off_victim = 0;
  for (const auto& mv : plan.moves) {
    if (mv.from == 1) ++planned_off_victim;
  }
  EXPECT_EQ(planned_off_victim, owned_by_victim);

  // The last active node cannot be detached.
  dir.detach_node(2);
  EXPECT_THROW(dir.detach_node(0), canopus::Error);
}

TEST(ElasticDirectory, ResidencyRestrictsOwnersWithActiveFallback) {
  cf::ChunkDirectory dir(4, cf::Partition::kMortonRange);
  dir.set_residency("d.bp/v/", {1, 3});
  for (std::uint32_t c = 0; c < 16; ++c) {
    const auto owner = dir.assign("d.bp/v/delta/1/" + std::to_string(c), c, 16, 8);
    EXPECT_TRUE(owner == 1 || owner == 3) << owner;
  }
  // Unmatched prefixes stay unrestricted.
  EXPECT_TRUE(dir.residency_for("other.bp/x").empty());
  EXPECT_EQ(dir.residency_for("d.bp/v/base"),
            (std::vector<std::uint32_t>{1, 3}));

  // A residency set whose nodes all left the active set falls back to the
  // full active set — keys never become unownable.
  dir.detach_node(1);
  dir.detach_node(3);
  const auto fallback = dir.owner_for("d.bp/v/base", 0, 1);
  EXPECT_TRUE(fallback == 0 || fallback == 2) << fallback;
  EXPECT_TRUE(dir.residency_for("d.bp/v/base").empty());

  // Epoch moves on residency edits too (cost models must re-plan), but
  // commit_move never bumps it.
  const auto e = dir.epoch();
  dir.set_residency("d.bp/v/", {});
  EXPECT_GT(dir.epoch(), e);
  dir.assign("k", 0, 1, 1);
  const auto e2 = dir.epoch();
  dir.commit_move("k", dir.active_nodes().front());
  EXPECT_EQ(dir.epoch(), e2);
}

// ------------------------------------------------ hierarchy: elastic tiers

TEST(ElasticTiers, DetachTierDrainsEveryObjectBitwise) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20), cs::lustre_spec(8 << 20)});
  std::map<std::string, Bytes> expected;
  for (int i = 0; i < 8; ++i) {
    const std::string key = "obj/" + std::to_string(i);
    expected[key] = bytes_of(std::string(1000 + i, static_cast<char>('a' + i)));
    h.place(key, expected[key]);
  }
  ASSERT_GT(h.tier(0).used_bytes(), 0u);

  const auto drained = h.detach_tier(0);
  EXPECT_FALSE(drained.empty());
  EXPECT_EQ(h.tier_count(), 1u);
  EXPECT_EQ(h.tier(0).spec().name, "lustre");
  for (const auto& [key, payload] : expected) {
    Bytes got;
    h.read(key, got);
    EXPECT_EQ(got, payload) << key;
  }

  // The only remaining tier cannot be detached.
  EXPECT_THROW(h.detach_tier(0), canopus::Error);

  // Re-attaching a fast tier at the front makes it the placement target
  // again.
  const auto idx = h.attach_tier(cs::tmpfs_spec(1 << 20), 0);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(h.tier(0).spec().name, "tmpfs");
  h.place("obj/new", bytes_of("fresh"));
  EXPECT_TRUE(h.tier(0).contains("obj/new"));
}

TEST(ElasticTiers, DetachRefusesWhenRemainingTiersCannotAbsorb) {
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20), cs::tmpfs_spec(2 << 10)});
  h.place("big", Bytes(512 << 10));  // fits tier 0 only
  EXPECT_THROW(h.detach_tier(0), cs::CapacityError);
  // The object is still readable somewhere after the refused drain.
  Bytes got;
  h.read("big", got);
  EXPECT_EQ(got.size(), 512u << 10);
}

TEST(ElasticTiers, TierResidencyPinsPlacementByName) {
  cs::StorageHierarchy h({cs::tmpfs_spec(4 << 20), cs::lustre_spec(16 << 20)});
  h.set_tier_residency("cold/", {"lustre"});

  const auto [cold_tier, cold_io] = h.place("cold/a", bytes_of("cold bytes"));
  EXPECT_EQ(h.tier(cold_tier).spec().name, "lustre");
  const auto [hot_tier, hot_io] = h.place("hot/a", bytes_of("hot bytes"));
  EXPECT_EQ(h.tier(hot_tier).spec().name, "tmpfs");
  (void)cold_io;
  (void)hot_io;

  EXPECT_EQ(h.resident_tiers("cold/a"), (std::vector<std::size_t>{1}));
  EXPECT_TRUE(h.resident_tiers("hot/a").empty());  // unrestricted

  // Naming only tiers that are gone degrades to unrestricted placement
  // instead of wedging writes.
  h.set_tier_residency("ghost/", {"nvram"});
  const auto [ghost_tier, ghost_io] = h.place("ghost/a", bytes_of("x"));
  EXPECT_EQ(h.tier(ghost_tier).spec().name, "tmpfs");
  (void)ghost_io;
}

// ------------------------------------------------- fabric: live attach/drain

TEST(ElasticFabric, AttachNodeMigratesExactlyOwnerChangedChunks) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 2;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  canopus::Options popt;
  popt.parallel.threads = 1;
  popt.parallel.read_ahead = false;
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";

  cm::Field reference;
  {
    canopus::Pipeline pipeline(fabric.node(0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string();
    reference = session->values();
  }

  const auto before = owners_of(fabric.directory());
  const auto stats_before = fabric.stats();
  const auto epoch_before = fabric.topology_epoch();

  const std::uint32_t id = fabric.attach_node(/*background=*/true);
  EXPECT_EQ(id, 2u);
  const cf::MigrationReport report = fabric.wait_for_migration();
  EXPECT_FALSE(report.superseded);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(fabric.topology_epoch(), epoch_before);

  // fabric.migrations == exactly the chunks whose owner changed.
  const auto after = owners_of(fabric.directory());
  std::size_t changed = 0;
  for (const auto& [key, owner] : before) {
    if (after.at(key) != owner) ++changed;
  }
  ASSERT_GT(changed, 0u);
  EXPECT_EQ(report.chunks_moved, changed);
  EXPECT_EQ(fabric.stats().migrations - stats_before.migrations, changed);

  // Stale-owner regression: after cutover the losing node's primary copy is
  // retired (its cache entries with it), and the new owner holds the chunk —
  // a post-rebalance read can only be served from the current owner or its
  // replica, never the stale copy.
  for (const auto& [key, owner] : before) {
    if (after.at(key) == owner) continue;
    EXPECT_TRUE(holds(fabric.node(after.at(key)), key)) << key;
    EXPECT_FALSE(holds(fabric.node(owner), key))
        << "stale copy survived migration: " << key;
  }

  // Reads after the topology change are bitwise-identical.
  for (std::size_t n = 0; n < fabric.node_count(); ++n) {
    canopus::Pipeline pipeline(fabric.node(n), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.usable()) << "node " << n << ": " << st.to_string();
    ASSERT_TRUE(st.ok()) << "node " << n << ": " << st.to_string();
    const auto& values = session->values();
    ASSERT_EQ(values.size(), reference.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i]) << "node " << n << " i=" << i;
    }
  }
}

TEST(ElasticFabric, DetachUnderRacingReadsAndCorruptionLosesNothing) {
  // The ISSUE.md sweep: a node is detached while sessions race full-accuracy
  // reads, and a seeded fault injector corrupts reads on the leaving node —
  // including migration copy reads. Zero failed queries, fields bitwise-
  // identical to a healthy reference, and the drained node owns nothing.
  const std::uint64_t seed = canopus::test::test_seed();
  std::mt19937_64 rng(seed ^ 0xe1a5ull);
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kSessions = 4;

  Staged data;
  cf::FabricOptions fo;
  fo.nodes = kNodes;

  canopus::Options popt;
  popt.parallel.threads = 1;
  popt.parallel.read_ahead = false;
  canopus::ReadRequest rreq;
  rreq.path = "d.bp";
  rreq.var = "v";

  cm::Field reference;
  {
    cf::Fabric fabric(fo, roomy_node_tiers());
    fabric.import_container(data.staging, "d.bp");
    const auto geometry = cc::GeometryCache::load(fabric.node(0), "d.bp", "v");
    rreq.geometry = &geometry;
    canopus::Pipeline pipeline(fabric.node(0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string() << " seed=" << seed;
    reference = session->values();
    rreq.geometry = nullptr;
  }

  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");
  const auto geometry = cc::GeometryCache::load(fabric.node(0), "d.bp", "v");
  rreq.geometry = &geometry;

  const auto victim = static_cast<std::uint32_t>(rng() % kNodes);
  // Corrupt a fraction of the victim's reads: racing sessions and the
  // migration's copy reads both hit the CRC check and retry (or fall back
  // to the replica). The stream is seeded, so the sweep is reproducible.
  {
    auto injector = std::make_shared<cs::FaultInjector>(seed ^ 0xc0de);
    cs::FaultProfile profile;
    profile.corrupt = 0.2;
    injector->set_profile(0, profile);
    injector->set_profile(1, profile);
    fabric.node(victim).attach_fault_injector(std::move(injector));
  }

  std::vector<std::unique_ptr<canopus::Pipeline>> pipelines;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (i == victim) continue;
    pipelines.push_back(
        std::make_unique<canopus::Pipeline>(fabric.node(i), popt));
  }

  std::vector<std::unique_ptr<canopus::ReadSession>> sessions(kSessions);
  std::vector<Status> statuses(kSessions);
  cf::MigrationReport report;
  {
    std::vector<std::thread> clients;
    clients.reserve(kSessions + 1);
    for (std::size_t s = 0; s < kSessions; ++s) {
      clients.emplace_back([&, s] {
        auto& pipeline = *pipelines[s % pipelines.size()];
        auto st = pipeline.open_session(rreq, &sessions[s]);
        if (st.ok()) st = sessions[s]->refine_to(0);
        statuses[s] = st;
      });
    }
    clients.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      report = fabric.detach_node(victim);
    });
    for (auto& client : clients) client.join();
  }

  // Zero failed queries: every racing session completed at full accuracy,
  // bitwise-identical to the healthy reference.
  for (std::size_t s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(statuses[s].ok())
        << "session " << s << ": " << statuses[s].to_string()
        << " seed=" << seed;
    const auto& values = sessions[s]->values();
    ASSERT_EQ(values.size(), reference.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i])
          << "session " << s << " i=" << i << " seed=" << seed;
    }
  }

  // The drain completed: nothing is owned by or resident on the victim,
  // and it is out of the active set for good.
  EXPECT_EQ(report.failed, 0u) << "seed=" << seed;
  EXPECT_FALSE(fabric.attached(victim));
  EXPECT_FALSE(fabric.directory().is_active(victim));
  // owned_bytes() is sized by the highest id that is active or still owns
  // entries — a fully drained top id is past the end, which is the answer.
  const auto owned = fabric.directory().owned_bytes();
  EXPECT_EQ(victim < owned.size() ? owned[victim] : 0u, 0u);
  for (const auto& e : fabric.directory().snapshot()) {
    EXPECT_NE(e.owner, victim) << e.key;
  }

  // And reads after the detach still serve, bitwise-identical.
  {
    canopus::Pipeline pipeline(fabric.node(victim == 0 ? 1 : 0), popt);
    std::unique_ptr<canopus::ReadSession> session;
    auto st = pipeline.open_session(rreq, &session);
    if (st.ok()) st = session->refine_to(0);
    ASSERT_TRUE(st.ok()) << st.to_string() << " seed=" << seed;
    const auto& values = session->values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], reference[i]) << "i=" << i << " seed=" << seed;
    }
  }
}

TEST(ElasticFabric, MissRacingCutoverOntoReaderServesItsNewCopy) {
  // The window behind DetachUnderRacingReadsAndCorruptionLosesNothing's rare
  // degraded step, replayed step by step: a reader on the new owner misses
  // locally, then the migration places the chunk there and commits the
  // cutover, and only then does the fabric resolve the miss. The directory
  // now names the reader as owner, and replica repair has not placed the
  // copy on the ring successor yet (repair_replicas drops stale copies before
  // it places new ones, so no replica exists anywhere). The resolution must
  // serve the reader's own new primary instead of degrading.
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 3;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  // Drive the directory by hand so the migration steps can be interleaved
  // with the read.
  const auto plan = fabric.directory().detach_node(0);
  ASSERT_FALSE(plan.moves.empty());
  const auto& mv = plan.moves.front();
  Bytes want;
  fabric.node(mv.from).read(mv.key, want);
  fabric.node(mv.to).place(mv.key, want);
  fabric.directory().commit_move(mv.key, mv.to);
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    fabric.node(i).erase(cs::StorageHierarchy::replica_key(mv.key));
  }

  // The reader's local miss now reaches the fabric, exactly as
  // StorageHierarchy::read forwards it.
  auto* remote = fabric.node(mv.to).remote_store();
  ASSERT_NE(remote, nullptr);
  Bytes got;
  cs::IoResult io;
  ASSERT_NO_THROW(io = remote->remote_read(mv.key, got)) << mv.key;
  EXPECT_EQ(got, want);
  EXPECT_FALSE(io.from_replica);
  EXPECT_EQ(fabric.stats().failed_remote_reads, 0u);
  EXPECT_EQ(fabric.stats().replica_fallbacks, 0u);
}

// ------------------------------------------- serve: routing after topology

TEST(ElasticServe, QueryAfterDetachNeverRoutesToRemovedNode) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 3;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  const canopus::Options options{
      .parallel = {.threads = 1},
      .serve = cv::ServeConfig{.workers = 2, .queue_limit = 16}};
  canopus::Pipeline pipeline(fabric.node(0), options);
  ASSERT_TRUE(pipeline.attach_fabric(&fabric).ok());
  ASSERT_EQ(pipeline.serving_fabric(), &fabric);

  cv::QueryRequest query;
  query.path = "d.bp";
  query.var = "v";
  query.target_level = 0;
  query.deadline_seconds = 1e6;  // no budget pressure; routing is the test

  cv::QueryResult warm;
  ASSERT_TRUE(pipeline.submit_query(query, &warm).usable());
  ASSERT_GE(warm.shard, 0);

  // Detach the node the router favored; after the control-plane detach no
  // query may route there, ever.
  const auto victim = static_cast<std::uint32_t>(warm.shard);
  const auto epoch_before = pipeline.topology().epoch;
  ASSERT_TRUE(pipeline.detach_node(victim).ok());

  const canopus::Topology topo = pipeline.topology();
  EXPECT_GT(topo.epoch, epoch_before);
  ASSERT_EQ(topo.nodes.size(), 3u);
  EXPECT_FALSE(topo.nodes[victim].active);
  EXPECT_EQ(topo.nodes[victim].owned_bytes, 0u);
  EXPECT_EQ(topo.active_nodes(), 2u);
  EXPECT_EQ(topo.migrations, fabric.stats().migrations);
  EXPECT_GT(topo.chunk_groups, 0u);

  for (int i = 0; i < 8; ++i) {
    cv::QueryResult result;
    const Status st = pipeline.submit_query(query, &result);
    ASSERT_TRUE(st.usable()) << st.to_string();
    ASSERT_GE(result.shard, 0);
    EXPECT_NE(static_cast<std::uint32_t>(result.shard), victim)
        << "query " << i << " routed to the detached node";
    EXPECT_EQ(result.topology_epoch, topo.epoch);
  }
}

// ------------------------------------------ facade: Options + control plane

TEST(ElasticOptions, DesignatedInitializersSetEveryBlock) {
  const canopus::Options options{
      .parallel = {.threads = 3},
      .observability = canopus::obs::ObservabilityOptions{
          .enabled = true, .trace_path = "t.json"},
      .retry = cs::RetryPolicy{.max_attempts = 2},
      .cache = canopus::cache::CacheConfig{.budget_bytes = 1 << 20,
                                           .shards = 2},
      .serve = cv::ServeConfig{.workers = 1},
      .io = {.depth = 4, .batch = 2},
      .fabric = cf::FabricOptions{.nodes = 2}};
  EXPECT_EQ(options.parallel.threads, 3u);
  ASSERT_TRUE(options.cache.has_value());
  EXPECT_EQ(options.cache->budget_bytes, 1u << 20);
  ASSERT_TRUE(options.serve.has_value());
  EXPECT_EQ(options.serve->workers, 1u);
  EXPECT_EQ(options.io.depth, 4u);
  ASSERT_TRUE(options.fabric.has_value());
  EXPECT_EQ(options.fabric->nodes, 2u);
  ASSERT_TRUE(options.retry.has_value());
  EXPECT_EQ(options.retry->max_attempts, 2u);
  ASSERT_TRUE(options.observability.has_value());
  EXPECT_TRUE(options.observability->enabled);
  EXPECT_EQ(options.observability->trace_path, "t.json");
  EXPECT_TRUE(options.check().ok());
}

TEST(ElasticOptions, ValidationNamesTheOffendingKnob) {
  {
    const canopus::Options options{.serve = cv::ServeConfig{.workers = 0}};
    const Status st = options.check();
    EXPECT_EQ(st.code, StatusCode::kInvalidArgument);
    EXPECT_NE(st.detail.find("serve.workers"), std::string::npos) << st.detail;
    EXPECT_THROW(options.validate(), canopus::Error);
  }
  {
    const canopus::Options options{.fabric = cf::FabricOptions{.nodes = 0}};
    const Status st = options.check();
    EXPECT_EQ(st.code, StatusCode::kInvalidArgument);
    EXPECT_NE(st.detail.find("fabric.nodes"), std::string::npos) << st.detail;
  }
  {
    const canopus::Options options{
        .cache = canopus::cache::CacheConfig{.budget_bytes = 0}};
    EXPECT_EQ(options.check().code, StatusCode::kInvalidArgument);
  }
  {
    canopus::Options options;
    options.io.batch = 0;
    EXPECT_EQ(options.check().code, StatusCode::kInvalidArgument);
  }
  // A bad option surfaces at Pipeline construction (throwing ctor) and as
  // kInvalidArgument through the Status-returning load().
  cs::StorageHierarchy h({cs::tmpfs_spec(1 << 20)});
  EXPECT_THROW(
      canopus::Pipeline(
          h, canopus::Options{.serve = cv::ServeConfig{.workers = 0}}),
      canopus::Error);
}

TEST(ElasticFacade, LoadReturnsStatusInsteadOfThrowing) {
  std::unique_ptr<canopus::Pipeline> pipeline;
  EXPECT_EQ(canopus::Pipeline::load("does/not/exist.xml", &pipeline).code,
            StatusCode::kNotFound);
  EXPECT_EQ(canopus::Pipeline::load("x.xml", nullptr).code,
            StatusCode::kInvalidArgument);

  const char* path = "elastic_facade_config.xml";
  {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "<canopus-config>"
        "<storage><tier preset=\"tmpfs\" capacity=\"4MiB\"/></storage>"
        "<threads>1</threads>"
        "</canopus-config>",
        f);
    std::fclose(f);
  }
  const Status st = canopus::Pipeline::load(path, &pipeline);
  ASSERT_TRUE(st.ok()) << st.to_string();
  ASSERT_NE(pipeline, nullptr);
  EXPECT_EQ(pipeline->options().parallel.threads, 1u);

  // With no trace sink configured flush_trace has nothing to flush, and
  // that is kOk.
  std::string trace_path = "unset";
  EXPECT_TRUE(pipeline->flush_trace(&trace_path).ok());
  EXPECT_TRUE(trace_path.empty());
  std::remove(path);
}

TEST(ElasticFacade, ControlPlaneWithoutFabricReportsInvalidArgument) {
  cs::StorageHierarchy h({cs::tmpfs_spec(4 << 20), cs::lustre_spec(8 << 20)});
  canopus::Pipeline pipeline(h);
  EXPECT_EQ(pipeline.serving_fabric(), nullptr);
  EXPECT_EQ(pipeline.attach_node().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.drain_node(0).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.detach_node(0).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.rebalance().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.wait_for_rebalance().code, StatusCode::kInvalidArgument);

  // The single-node topology snapshot still describes the local hierarchy.
  const canopus::Topology topo = pipeline.topology();
  EXPECT_EQ(topo.epoch, 0u);
  ASSERT_EQ(topo.nodes.size(), 1u);
  EXPECT_EQ(topo.nodes[0].tiers,
            (std::vector<std::string>{"tmpfs", "lustre"}));
  EXPECT_EQ(topo.active_nodes(), 1u);
}

TEST(ElasticFacade, AttachDrainDetachRoundTripThroughPipeline) {
  Staged data;
  cf::FabricOptions fo;
  fo.nodes = 2;
  cf::Fabric fabric(fo, roomy_node_tiers());
  fabric.import_container(data.staging, "d.bp");

  canopus::Pipeline pipeline(fabric.node(0),
                             canopus::Options{.parallel = {.threads = 1}});
  ASSERT_TRUE(pipeline.attach_fabric(&fabric).ok());

  std::uint32_t id = 0;
  ASSERT_TRUE(pipeline.attach_node(&id).ok());
  EXPECT_EQ(id, 2u);
  const Status migrated = pipeline.wait_for_rebalance();
  ASSERT_TRUE(migrated.ok()) << migrated.to_string();
  EXPECT_EQ(pipeline.topology().nodes.size(), 3u);
  EXPECT_EQ(pipeline.topology().active_nodes(), 3u);

  ASSERT_TRUE(pipeline.drain_node(id).ok());
  EXPECT_EQ(pipeline.topology().nodes[id].owned_bytes, 0u);
  ASSERT_TRUE(pipeline.detach_node(id).ok());
  EXPECT_EQ(pipeline.topology().active_nodes(), 2u);

  // Unknown / already-detached ids are caller bugs, not aborts.
  EXPECT_EQ(pipeline.detach_node(99).code, StatusCode::kInvalidArgument);
  EXPECT_EQ(pipeline.drain_node(id).code, StatusCode::kInvalidArgument);

  // rebalance() with nothing to do is kOk.
  const Status st = pipeline.rebalance();
  EXPECT_TRUE(st.ok()) << st.to_string();
}
