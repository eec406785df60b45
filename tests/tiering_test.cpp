// Tests for the workload-adaptive auto-tiering loop (src/tiering): the
// decayed HeatTracker, the TierAdvisor's hysteresis/cooldown policy, the
// typed capacity errors of StorageHierarchy::make_room, predicted-residency
// re-stamping (planned cost == achieved cost), heat-aware coldest-first
// demotion, the <tiering> config block, and heat survival across fabric
// topology changes.
//
// Randomized sweeps derive their seeds from CANOPUS_TEST_SEED (see
// tests/test_support.hpp) and print the seed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/canopus.hpp"
#include "core/config.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "fabric/fabric.hpp"
#include "mesh/generators.hpp"
#include "serve/cost_model.hpp"
#include "storage/hierarchy.hpp"
#include "test_support.hpp"
#include "tiering/heat_tracker.hpp"
#include "tiering/tier_advisor.hpp"

namespace ca = canopus::adios;
namespace cc = canopus::core;
namespace cf = canopus::fabric;
namespace cm = canopus::mesh;
namespace cs = canopus::storage;
namespace ct = canopus::tiering;
namespace cv = canopus::serve;
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

cs::StorageHierarchy three_tiers() {
  return cs::StorageHierarchy({cs::tmpfs_spec(64 << 20),
                               cs::ssd_spec(128 << 20),
                               cs::lustre_spec(1 << 30)});
}

cc::RefactorConfig chunked_config() {
  cc::RefactorConfig config;
  config.levels = 3;
  config.codec = "zfp";
  config.error_bound = 1e-6;
  config.delta_chunks = 8;
  return config;
}

/// Advisor knobs with a huge half-life (no meaningful decay inside a test)
/// and no cooldown, so policy outcomes are functions of recorded heat alone.
ct::TieringConfig test_policy() {
  ct::TieringConfig c;
  c.half_life_seconds = 1e6;
  c.promote_threshold = 4.0;
  c.demote_threshold = 1.0;
  c.cooldown_ticks = 0;
  c.max_moves_per_tick = 100;
  return c;
}

/// Object keys of every kDelta block of `level` in `path`/`var`.
std::vector<std::string> delta_keys(cs::StorageHierarchy& tiers,
                                    const std::string& path,
                                    const std::string& var,
                                    std::uint32_t level) {
  std::vector<std::string> keys;
  const ca::BpReader reader(tiers, path);
  for (const auto& b : reader.inq_var(var).blocks) {
    if (b.kind == ca::BlockKind::kDelta && b.level == level) {
      keys.push_back(b.object_key);
    }
  }
  return keys;
}

std::map<std::string, Bytes> stored_objects(cs::StorageHierarchy& tiers,
                                            const std::string& path,
                                            const std::string& var) {
  const ca::BpReader reader(tiers, path);
  std::map<std::string, Bytes> objects;
  for (const auto& record : reader.inq_var(var).blocks) {
    Bytes bytes;
    tiers.read(record.object_key, bytes);
    objects[record.object_key] = std::move(bytes);
  }
  return objects;
}

}  // namespace

// ------------------------------------------------------------ heat tracker --

TEST(HeatTracker, DecayHalvesAtHalfLifeAndIsMonotone) {
  // Recording at t=0 keeps the elapsed-time arithmetic exact (dt/half_life
  // is exactly 1 and 2), so the half-life property is bit-exact:
  // exp2(-1) == 0.5 and exp2(-2) == 0.25.
  {
    ct::HeatTracker tracker(0.25);
    tracker.record("k", 8.0, 0.0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", 0.0), 8.0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", 0.25), 4.0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", 0.5), 2.0);
  }
  // Property sweep over random half-lives, weights, and record times:
  // half-life decay to relative precision (the time subtraction rounds),
  // strict monotonicity in elapsed time, and stamps that never run backwards.
  const std::uint64_t seed = canopus::test::test_seed() ^ 0x7ea7u;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> half_life_dist(0.01, 10.0);
  std::uniform_real_distribution<double> weight_dist(0.1, 100.0);
  std::uniform_real_distribution<double> time_dist(0.0, 100.0);
  for (int c = 0; c < 64; ++c) {
    const double half_life = half_life_dist(rng);
    const double w = weight_dist(rng);
    const double t0 = time_dist(rng);
    ct::HeatTracker tracker(half_life);
    tracker.record("k", w, t0);
    EXPECT_DOUBLE_EQ(tracker.heat("k", t0), w) << "seed=" << seed;
    EXPECT_NEAR(tracker.heat("k", t0 + half_life), w * 0.5, 1e-9 * w)
        << "seed=" << seed;
    EXPECT_NEAR(tracker.heat("k", t0 + 2.0 * half_life), w * 0.25, 1e-9 * w)
        << "seed=" << seed;
    // Strictly decreasing along any increasing time ladder.
    double prev = tracker.heat("k", t0);
    for (int step = 1; step <= 8; ++step) {
      const double now = t0 + step * 0.37 * half_life;
      const double h = tracker.heat("k", now);
      EXPECT_LT(h, prev) << "seed=" << seed << " step=" << step;
      EXPECT_GT(h, 0.0) << "seed=" << seed;
      prev = h;
    }
    // Stamps never go backwards: an earlier query decays by factor 1.
    EXPECT_DOUBLE_EQ(tracker.heat("k", t0 - 1.0), w) << "seed=" << seed;
    // Accumulation folds decay before adding the new weight.
    tracker.record("k", w, t0 + half_life);
    EXPECT_NEAR(tracker.heat("k", t0 + half_life), w * 0.5 + w, 1e-9 * w)
        << "seed=" << seed;
  }
}

TEST(HeatTracker, UnknownKeysAreColdAndTrackedCounts) {
  ct::HeatTracker tracker(1.0);
  EXPECT_DOUBLE_EQ(tracker.heat("nope", 5.0), 0.0);
  EXPECT_EQ(tracker.tracked(), 0u);
  tracker.record("a", 1.0, 0.0);
  tracker.record("b", 2.0, 0.0);
  tracker.record("a", 1.0, 1.0);
  EXPECT_EQ(tracker.tracked(), 2u);
}

// ------------------------------------------- make_room error typing (fix) --

TEST(MakeRoom, BothCapacityPathsThrowTypedCapacityError) {
  // Path 1: nothing on the tier can be evicted at all (request exceeds what
  // eviction could ever free).
  {
    cs::StorageHierarchy h({cs::tmpfs_spec(64 << 10)});
    EXPECT_THROW(h.make_room(0, 128 << 10), cs::CapacityError);
    Status status = Status::success();
    try {
      h.make_room(0, 128 << 10);
    } catch (...) {
      status = canopus::status_from_current_exception();
    }
    EXPECT_EQ(status.code, StatusCode::kCapacity) << status.to_string();
  }
  // Path 2: a victim exists but no lower tier can absorb it. This used to be
  // a CANOPUS_CHECK (generic Error -> kInternal) while path 1 already threw
  // CapacityError -> kCapacity; identical capacity exhaustion must map to
  // one status code.
  {
    cs::StorageHierarchy h({cs::tmpfs_spec(16 << 10), cs::ssd_spec(8 << 10)});
    const Bytes block(12 << 10, std::byte{0x5a});
    h.write_to(0, "victim", block);
    EXPECT_THROW(h.make_room(0, 8 << 10), cs::CapacityError);
    Status status = Status::success();
    try {
      h.make_room(0, 8 << 10);
    } catch (...) {
      status = canopus::status_from_current_exception();
    }
    EXPECT_EQ(status.code, StatusCode::kCapacity) << status.to_string();
    // The failed eviction never destroys data.
    EXPECT_TRUE(h.find("victim").has_value());
  }
}

// ------------------------------------------------------------ policy loop --

TEST(TierAdvisor, PromotesHotDeltaLevelThenStabilizes) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));
  ASSERT_GT(advisor.report().groups, 0u);

  // Start the finest delta level cold, at the bottom of the stack.
  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) tiers.migrate(key, 2);

  // A hot workload on that level: mean heat far above the promote band.
  for (const auto& key : keys) advisor.heat().record(key, 10.0);

  // Each tick promotes the group one tier; two ticks reach the top.
  EXPECT_GE(advisor.tick(), 1u);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(1)) << key;
  }
  EXPECT_GE(advisor.tick(), 1u);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(0)) << key;
    // The plan was re-stamped as each migration landed.
    EXPECT_EQ(advisor.predicted_tier(key), std::optional<std::size_t>(0));
  }
  const auto after_rise = advisor.report();
  EXPECT_GE(after_rise.promotions, 2u);

  // Still hot, already on the fastest tier: placement is stable from here.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(advisor.tick(), 0u);
  EXPECT_EQ(advisor.report().promotions, after_rise.promotions);
}

TEST(TierAdvisor, HysteresisBandNeverThrashes) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  // Every tracked block sits inside the band (demote 1 < heat 2 < promote 4):
  // an oscillating workload there must never move anything.
  const ca::BpReader reader(tiers, "d.bp");
  for (const auto& var : reader.variables()) {
    for (const auto& b : reader.inq_var(var).blocks) {
      advisor.heat().record(b.object_key, 2.0);
    }
  }
  const auto before = stored_objects(tiers, "d.bp", "v");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(advisor.tick(), 0u) << "tick " << i;
    // Wiggle the heat without leaving the band.
    const ca::BpReader r(tiers, "d.bp");
    for (const auto& var : r.variables()) {
      for (const auto& b : r.inq_var(var).blocks) {
        advisor.heat().record(b.object_key, (i % 2 == 0) ? 0.5 : -0.5);
      }
    }
  }
  const auto report = advisor.report();
  EXPECT_EQ(report.promotions, 0u);
  EXPECT_EQ(report.demotions, 0u);
  // Placement (and bytes) untouched.
  const auto after = stored_objects(tiers, "d.bp", "v");
  EXPECT_EQ(before.size(), after.size());
  for (const auto& [key, bytes] : before) {
    const auto it = after.find(key);
    ASSERT_NE(it, after.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }
}

TEST(TierAdvisor, CooldownSuppressesImmediateReversal) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  auto config = test_policy();
  config.cooldown_ticks = 2;
  ct::TierAdvisor advisor(config);
  advisor.watch(tiers);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  for (const auto& key : keys) tiers.migrate(key, 1);
  for (const auto& key : keys) advisor.heat().record(key, 10.0);
  EXPECT_GE(advisor.tick(), 1u);  // promoted to tier 0
  for (const auto& key : keys) {
    ASSERT_EQ(tiers.find(key), std::optional<std::size_t>(0)) << key;
  }

  // Collapse the heat below the demote band: the group now *wants* down, but
  // it just moved — cooldown holds it for cooldown_ticks ticks.
  for (const auto& key : keys) advisor.heat().record(key, -10.0);
  const auto before = advisor.report();
  EXPECT_EQ(advisor.tick(), 0u);
  EXPECT_EQ(advisor.tick(), 0u);
  EXPECT_GT(advisor.report().skipped_cooldown, before.skipped_cooldown);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(0)) << key;
  }
  // Cooldown over: the demotion goes through.
  EXPECT_GE(advisor.tick(), 1u);
  for (const auto& key : keys) {
    EXPECT_EQ(tiers.find(key), std::optional<std::size_t>(1)) << key;
  }
  EXPECT_GT(advisor.report().demotions, before.demotions);
}

TEST(TierAdvisor, DemoteColdestPicksColdestFirstDeterministically) {
  cs::StorageHierarchy h({cs::tmpfs_spec(64 << 10), cs::lustre_spec(1 << 30)});
  const Bytes block(8 << 10, std::byte{0x11});
  h.write_to(0, "hot", block);
  h.write_to(0, "warm", block);
  h.write_to(0, "cold", block);

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(h);
  advisor.heat().record("hot", 5.0);
  advisor.heat().record("warm", 3.0);
  advisor.heat().record("cold", 1.0);

  // Free space is 40 KiB; asking for 48 KiB demotes exactly one object —
  // and it must be the coldest.
  EXPECT_EQ(advisor.demote_coldest(h, 0, 48 << 10), 1u);
  EXPECT_EQ(h.find("cold"), std::optional<std::size_t>(1));
  EXPECT_EQ(h.find("warm"), std::optional<std::size_t>(0));
  EXPECT_EQ(h.find("hot"), std::optional<std::size_t>(0));

  // The next request takes the next-coldest.
  EXPECT_EQ(advisor.demote_coldest(h, 0, 56 << 10), 1u);
  EXPECT_EQ(h.find("warm"), std::optional<std::size_t>(1));
  EXPECT_EQ(h.find("hot"), std::optional<std::size_t>(0));
  EXPECT_EQ(advisor.report().delegated_evictions, 2u);
}

// ----------------------------------------- stale residency (planned cost) --

TEST(StaleResidency, RefineEstimateTracksLiveTierAfterBackgroundDemotion) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  const auto reader = canopus::test::open_reader(tiers, "d.bp", "v");
  const auto estimate = [&](const cc::ProgressiveReader& r) {
    return cv::CostModel::build(tiers, r).step(0).io_seconds;
  };
  const double before = estimate(*reader);

  // A background demotion (eviction pressure, advisor policy) moves the
  // level's chunks while the reader stays open. The estimate must price the
  // tier that now holds the blocks, not the tier the writer recorded.
  const auto keys = delta_keys(tiers, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  const std::size_t origin = *tiers.find(keys.front());
  const std::size_t target = origin == 2 ? 0 : 2;
  for (const auto& key : keys) tiers.migrate(key, target);

  const double after = estimate(*reader);
  EXPECT_NE(after, before);
  if (target > origin) {
    EXPECT_GT(after, before);  // demoted to a slower tier: pricier
  } else {
    EXPECT_LT(after, before);
  }
  // Planned == achieved: a reader opened fresh (which can only see live
  // residency) prices the step identically.
  const auto fresh = canopus::test::open_reader(tiers, "d.bp", "v");
  EXPECT_DOUBLE_EQ(after, estimate(*fresh));
}

TEST(StaleResidency, PredictedTierRestampsOnObservedMigration) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers);

  const auto keys = delta_keys(tiers, "d.bp", "v", 1);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(advisor.predicted_tier(keys.front()), std::nullopt);

  // Any observed migration — advisor move, make_room demotion, eviction —
  // re-stamps the prediction to the achieved placement.
  tiers.migrate(keys.front(), 2);
  EXPECT_EQ(advisor.predicted_tier(keys.front()),
            std::optional<std::size_t>(2));
  tiers.migrate(keys.front(), 0);
  EXPECT_EQ(advisor.predicted_tier(keys.front()),
            std::optional<std::size_t>(0));

  // With predictions in line with live residency, an advisor-aware cost
  // model and a plain one agree exactly: planned cost is achieved cost.
  const auto reader = canopus::test::open_reader(tiers, "d.bp", "v");
  const auto with = cv::CostModel::build(tiers, *reader, nullptr, &advisor);
  const auto without = cv::CostModel::build(tiers, *reader, nullptr, nullptr);
  ASSERT_EQ(with.steps().size(), without.steps().size());
  for (std::size_t i = 0; i < with.steps().size(); ++i) {
    EXPECT_DOUBLE_EQ(with.steps()[i].io_seconds, without.steps()[i].io_seconds)
        << "level " << i;
  }
}

// -------------------------------------------------- bitwise invisibility --

TEST(TierAdvisor, AdvisorMovesAreBitwiseInvisibleToRestoredFields) {
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  const auto values = smooth_field(mesh);

  auto tiers_static = three_tiers();
  canopus::test::write_field(tiers_static, "d.bp", "v", mesh, values,
                             chunked_config());
  cm::Field baseline;
  {
    const auto reader = canopus::test::open_reader(tiers_static, "d.bp", "v");
    reader->refine_to(0);
    baseline = reader->values();
  }

  auto tiers_adaptive = three_tiers();
  canopus::test::write_field(tiers_adaptive, "d.bp", "v", mesh, values,
                             chunked_config());
  ct::TierAdvisor advisor(test_policy());
  advisor.watch(tiers_adaptive);
  ASSERT_TRUE(advisor.register_container("d.bp"));

  // Heat the fine levels hard and let the advisor shuffle placement between
  // refinement steps — exactly the background interleaving production sees.
  std::size_t moves = 0;
  for (std::uint32_t level : {0u, 1u}) {
    for (const auto& key : delta_keys(tiers_adaptive, "d.bp", "v", level)) {
      tiers_adaptive.migrate(key, 2);
      advisor.heat().record(key, 10.0);
    }
  }
  const auto reader = canopus::test::open_reader(tiers_adaptive, "d.bp", "v");
  reader->refine_to(1);
  moves += advisor.tick();
  reader->refine_to(0);
  moves += advisor.tick();
  ASSERT_GT(moves, 0u);  // the advisor really did re-place data mid-read

  ASSERT_EQ(baseline.size(), reader->values().size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], reader->values()[i]) << "vertex " << i;
  }
  // The stored products are byte-identical too, wherever they now live.
  const auto a = stored_objects(tiers_static, "d.bp", "v");
  const auto b = stored_objects(tiers_adaptive, "d.bp", "v");
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, bytes] : a) {
    const auto it = b.find(key);
    ASSERT_NE(it, b.end()) << key;
    EXPECT_EQ(bytes, it->second) << key;
  }
}

// ------------------------------------------------------- fabric topology --

TEST(TierAdvisor, HeatSurvivesAttachNodeAndRebalance) {
  cs::StorageHierarchy staging({cs::tmpfs_spec(256 << 20)});
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(staging, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  cf::FabricOptions fo;
  fo.nodes = 2;
  cf::Fabric fabric(fo, {cs::tmpfs_spec(64 << 20), cs::lustre_spec(1 << 30)});
  fabric.import_container(staging, "d.bp");

  ct::TierAdvisor advisor(test_policy());
  advisor.attach_fabric(&fabric);

  // Reads served anywhere in the fabric feed the tracker through the
  // per-node access listeners.
  const auto keys = delta_keys(staging, "d.bp", "v", 0);
  ASSERT_FALSE(keys.empty());
  const std::string probe = keys.front();
  const auto loc = fabric.directory().lookup(probe);
  ASSERT_TRUE(loc.has_value());
  Bytes payload;
  fabric.node(loc->owner).read(probe, payload);
  const double heat_before = advisor.heat().heat(probe);
  EXPECT_GT(heat_before, 0.0);

  // Grow the cluster and rebalance mid-run. Heat is keyed by global object
  // names, so a chunk handed to the new owner keeps its history.
  const std::uint32_t added = fabric.attach_node(/*background=*/false);
  fabric.rebalance();
  EXPECT_GE(advisor.heat().heat(probe), heat_before * 0.99);

  // The listener reached the node attached after attach_fabric(): reads on
  // it keep feeding the same tracker.
  const auto moved = fabric.directory().lookup(probe);
  ASSERT_TRUE(moved.has_value());
  Bytes again;
  fabric.node(moved->owner).read(probe, again);
  EXPECT_EQ(again, payload);
  EXPECT_GT(advisor.heat().heat(probe), heat_before);
  (void)added;
}

// ------------------------------------------------------ config + options --

TEST(TieringConfig, ParsesTieringBlock) {
  const auto config = cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <tiering enabled="true" half-life="500ms" promote-above="4"
             demote-below="1" interval="10ms" max-moves="8"
             cooldown-ticks="3" reserve="0.1"/>
  </canopus-config>)");
  ASSERT_TRUE(config.tiering.has_value());
  EXPECT_TRUE(config.tiering->enabled);
  EXPECT_DOUBLE_EQ(config.tiering->half_life_seconds, 0.5);
  EXPECT_DOUBLE_EQ(config.tiering->promote_threshold, 4.0);
  EXPECT_DOUBLE_EQ(config.tiering->demote_threshold, 1.0);
  EXPECT_DOUBLE_EQ(config.tiering->interval_seconds, 0.01);
  EXPECT_EQ(config.tiering->max_moves_per_tick, 8u);
  EXPECT_EQ(config.tiering->cooldown_ticks, 3u);
  EXPECT_DOUBLE_EQ(config.tiering->reserve, 0.1);
  // The block flows through to the consolidated Options surface.
  ASSERT_TRUE(config.options().tiering.has_value());
  EXPECT_TRUE(config.options().tiering->enabled);
}

TEST(TieringConfig, RejectsInvertedHysteresisBandNamingTheAttributes) {
  try {
    cc::load_config(R"(<canopus-config>
      <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
      <tiering promote-above="1" demote-below="4"/>
    </canopus-config>)");
    FAIL() << "inverted band accepted";
  } catch (const canopus::Error& e) {
    // The message must name the element and both attributes, mirroring the
    // <fabric> eviction-low/eviction-high diagnostic.
    const std::string what = e.what();
    EXPECT_NE(what.find("<tiering>"), std::string::npos) << what;
    EXPECT_NE(what.find("demote-below"), std::string::npos) << what;
    EXPECT_NE(what.find("promote-above"), std::string::npos) << what;
  }
}

TEST(TieringConfig, RejectsOutOfRangeReserve) {
  EXPECT_THROW(cc::load_config(R"(<canopus-config>
    <storage><tier preset="tmpfs" capacity="4MiB"/></storage>
    <tiering reserve="1.5"/>
  </canopus-config>)"),
               canopus::Error);
}

TEST(TieringConfig, OptionsValidateRejectsInvertedBand) {
  canopus::Options options;
  ct::TieringConfig tc;
  tc.promote_threshold = 1.0;
  tc.demote_threshold = 4.0;
  options.tiering = tc;
  const Status status = options.check();
  EXPECT_EQ(status.code, StatusCode::kInvalidArgument);
  EXPECT_NE(status.to_string().find("demote_threshold"), std::string::npos)
      << status.to_string();
}

TEST(TieringConfig, PipelineFacadeExposesAdvisorAndReport) {
  auto tiers = three_tiers();
  const auto mesh = cm::make_annulus_mesh(16, 100, 0.5, 1.0, 0.1, 7);
  canopus::test::write_field(tiers, "d.bp", "v", mesh, smooth_field(mesh),
                             chunked_config());

  canopus::Options options;
  options.tiering = test_policy();  // enabled=false: ticks stay manual
  canopus::Pipeline pipeline(tiers, options);
  ct::TierAdvisor& advisor = pipeline.tier_advisor();
  EXPECT_EQ(&advisor, &pipeline.tier_advisor());  // one advisor per pipeline
  EXPECT_DOUBLE_EQ(advisor.config().half_life_seconds, 1e6);
  ASSERT_TRUE(advisor.register_container("d.bp"));
  advisor.tick();
  const auto report = pipeline.tiering_report();
  EXPECT_EQ(report.ticks, 1u);
  EXPECT_GT(report.groups, 0u);
}
