#pragma once
// canopus::Options — the one runtime option surface of a Pipeline.
//
// Options gathers every per-subsystem block of one deployment under one
// roof: concurrency (core::ParallelConfig), instrumentation
// (obs::ObservabilityOptions), robustness (storage::RetryPolicy +
// FaultInjector), caching (cache::CacheConfig), serving
// (serve::ServeConfig), async I/O (io::IoConfig), the cluster shape
// (fabric::FabricOptions) and adaptive tiering (tiering::TieringConfig).
// It is an aggregate, set with designated initializers, and a single
// validation pass reports every inconsistency with its subsystem context
// ("canopus::Options: serve.workers must be >= 1") instead of a
// CANOPUS_CHECK deep inside the subsystem.
//
//   canopus::Options options{
//       .parallel = {.threads = 8},
//       .cache = cache::CacheConfig{.budget_bytes = 256 << 20},
//       .serve = serve::ServeConfig{.workers = 4, .queue_limit = 64},
//       .fabric = fabric::FabricOptions{.nodes = 4}};
//   canopus::Pipeline pipeline(tiers, options);
//
// An XML RuntimeConfig fills the same struct (RuntimeConfig::options()).
// The per-subsystem structs themselves stay where their subsystem defines
// them (serve/serve_config.hpp, io/io_config.hpp, ...): Options is the
// aggregation point, not a parallel redefinition, so a knob added to a
// subsystem is immediately settable here.

#include <memory>
#include <optional>

#include "cache/block_cache.hpp"
#include "core/status.hpp"
#include "core/types.hpp"
#include "fabric/fabric_config.hpp"
#include "io/io_config.hpp"
#include "obs/observability.hpp"
#include "serve/serve_config.hpp"
#include "storage/hierarchy.hpp"
#include "tiering/tiering_config.hpp"

namespace canopus {

/// Pipeline-lifetime configuration: the one place concurrency,
/// instrumentation, fault policy, caching, serving, async I/O, and the
/// cluster topology are set. Every member has a default initializer, so a
/// designated initializer may name any subset of them.
struct Options {
  /// Worker count / pipeline overlap / read-ahead for both directions.
  core::ParallelConfig parallel{};
  /// When set, obs::install()ed at construction (enables or disables
  /// process-wide metrics+tracing). Leave unset to keep the current global
  /// observability state (e.g. a bench already enabled --trace-out).
  std::optional<obs::ObservabilityOptions> observability{};
  /// When set, applied to the hierarchy at construction.
  std::optional<storage::RetryPolicy> retry{};
  /// When set, attached to the hierarchy at construction (seeded fault
  /// injection for robustness testing).
  std::shared_ptr<storage::FaultInjector> faults{};
  /// When set, a shared BlockCache with this budget/sharding is attached to
  /// the hierarchy at construction (unless one is already attached): tier
  /// blobs and decoded chunk arrays are then shared across every reader and
  /// ReadSession of this pipeline, with single-flight loading. Leave unset
  /// for the uncached (per-reader) behavior.
  std::optional<cache::CacheConfig> cache{};
  /// When set, Pipeline::submit_query()'s QueryScheduler is created with
  /// these knobs (worker count, bounded admission queue, default deadline,
  /// priority aging). Leave unset to get ServeConfig defaults on first use.
  std::optional<serve::ServeConfig> serve{};
  /// Async I/O engine shape forwarded into every reader/session this
  /// pipeline opens (core::ReaderOptions::io). The depth-1 default keeps the
  /// blocking read path.
  io::IoConfig io{};
  /// Cluster shape (node count, partitioning, network envelope, eviction
  /// watermarks). The pipeline itself does not construct a fabric::Fabric —
  /// build one from these options and Pipeline::attach_fabric() it — but
  /// carrying the block here gives XML configs and callers one home for it
  /// (RuntimeConfig::options() fills it from the <fabric> element).
  std::optional<fabric::FabricOptions> fabric{};
  /// Workload-adaptive tiering (heat tracking + TierAdvisor policy). When
  /// set, Pipeline::tier_advisor() is built with these knobs — and created
  /// eagerly by query_scheduler() when `tiering->enabled`, so queries feed
  /// heat and plan against predicted residency from the first submission.
  /// Leave unset for static placement (the advisor can still be created
  /// explicitly with defaults via Pipeline::tier_advisor()).
  std::optional<tiering::TieringConfig> tiering{};

  /// One validation pass over every set block. Throws canopus::Error whose
  /// message names the offending subsystem and knob ("canopus::Options:
  /// fabric.nodes must be >= 1"); the facade boundary (Pipeline
  /// construction, Pipeline::load) maps it to StatusCode::kInvalidArgument.
  void validate() const;

  /// Exception-free validation for Status-first call sites.
  Status check() const;
};

}  // namespace canopus
