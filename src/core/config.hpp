#pragma once
// Runtime configuration from an ADIOS-style external XML file.
//
// The paper configures transports and tier mappings declaratively
// ("selected and configured in an external XML configuration file", Section
// III-D) so switching layouts needs no recompilation. This loader accepts:
//
//   <canopus-config>
//     <storage policy="fastest-fit">
//       <tier preset="tmpfs"  capacity="4MiB"/>
//       <tier preset="lustre" capacity="1GiB" read-bw="250MB/s"
//             read-latency="5ms"/>
//       <tier name="archive" capacity="8GiB" read-bw="40MB/s"
//             write-bw="40MB/s" read-latency="50ms" write-latency="50ms"
//             backend="file" root="/tmp/archive"/>
//     </storage>
//     <refactor levels="3" step="2" codec="zfp" error-bound="1e-6"
//               estimate="uniform" priority="shortest"
//               tiered-placement="true"/>
//     <threads>4</threads>
//     <pipeline overlap="true" read-ahead="true"/>
//     <faults seed="42">
//       <tier name="lustre" read-error="0.1" corrupt="0.01"
//             latency-spike="0.05" spike-duration="20ms"/>
//     </faults>
//     <retry max-attempts="4" backoff="1ms" multiplier="2"/>
//     <cache budget="64MiB" shards="8"/>
//     <observability enabled="true" trace="run-trace.json"
//                    histogram-buckets="64"/>
//     <io depth="8" batch="4" deadline="5ms"/>
//     <serve workers="4" queue-limit="64" deadline-default="250ms"
//            age-boost="4"/>
//     <fabric nodes="4" partition="range" remote-us="200" remote-bw="1GB/s"
//             eviction-high="0.9" eviction-low="0.75"
//             eviction-interval="10ms"/>
//     <tiering enabled="true" half-life="500ms" promote-above="4"
//              demote-below="1" interval="10ms" max-moves="8"
//              cooldown-ticks="2" reserve="0.1"/>
//   </canopus-config>
//
// Presets (tmpfs, nvram, ssd, burst-buffer, lustre, campaign) pull the
// envelope from storage/tier.hpp; explicit attributes override preset
// fields. Sizes accept B/KiB/MiB/GiB/TiB (and KB/MB/GB/TB as powers of ten),
// rates accept .../s of the same units, durations accept ns/us/ms/s.
//
// The optional <faults> section wires a seeded storage::FaultInjector into
// the hierarchy: each <tier name="..."> child names a configured tier and
// sets its failure probabilities (read-error, write-error, corrupt,
// latency-spike in [0,1]; spike-duration as a duration). <retry> tunes the
// hierarchy's read retry-with-backoff policy.
//
// <threads> pins the task engine's worker count (0 = hardware concurrency)
// and <pipeline> toggles the writer's compute/commit overlap and the
// reader's delta read-ahead; both land in RuntimeConfig::parallel and from
// there in options().parallel.
//
// The optional <observability> element configures the metrics + tracing
// layer (src/obs): `enabled` flips the process-wide master switch, `trace`
// names the Chrome-trace JSON sink, and `histogram-buckets` sets latency
// histogram resolution (log2 buckets, clamped to [2, 64]).
//
// The optional <cache> element attaches a shared BlockCache to the hierarchy
// (src/cache): `budget` is a size ("64MiB"; `budget-mb` accepts a bare
// MiB count), `shards` the lock-shard count, and `verify-hits` re-checks
// each hit's CRC-32.
//
// The optional <io> element shapes the asynchronous submission/completion
// engine (src/io) the progressive reader routes its delta fetches through:
// `depth` bounds the in-flight tier operations (1 = blocking, the default),
// `batch` the ops per aggregated submission to the storage hierarchy, and
// `deadline` the per-op simulated-latency deadline (a miss is recorded on
// the io.deadline_misses counter, never enforced).
//
// The optional <serve> element configures the deadline-aware query
// scheduler behind Pipeline::submit_query (src/serve): `workers` is the
// service capacity, `queue-limit` bounds the admission queue (excess
// submissions are shed with kOverloaded), `deadline-default` is the
// retrieval-cost budget of queries that name none, and `age-boost` the
// priority points a waiting query gains per queued second.
//
// The optional <fabric> element describes a simulated multi-node serving
// cluster (src/fabric): `nodes` is the node count, `partition` the chunk
// ownership scheme ("range" = contiguous Morton ranges, "hash" = FNV-1a),
// `remote-us` the per-message one-way latency in microseconds and
// `remote-bw` the inter-node bandwidth of the remote-read envelope, and
// `eviction-high`/`eviction-low`/`eviction-interval` the per-node
// anticipatory eviction provider's watermarks (fractions of tier-0
// capacity; high = 0 disables the provider).
//
// The optional <tiering> element configures the workload-adaptive tier
// advisor (src/tiering): `enabled` starts its background policy thread,
// `half-life` the access-heat decay, `promote-above`/`demote-below` the
// hysteresis band (promote-above must exceed demote-below — inverted bands
// are rejected like inverted eviction watermarks), `interval` the policy
// period, `max-moves`/`cooldown-ticks` the churn bounds, and `reserve` the
// headroom fraction kept free on a promotion's target tier (in [0, 1)).

#include <optional>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "core/options.hpp"
#include "core/types.hpp"
#include "fabric/fabric_config.hpp"
#include "io/io_config.hpp"
#include "obs/observability.hpp"
#include "serve/serve_config.hpp"
#include "storage/fault.hpp"
#include "storage/hierarchy.hpp"
#include "tiering/tiering_config.hpp"

namespace canopus::core {

struct RuntimeConfig {
  std::vector<storage::TierSpec> tiers;  // fastest first, as listed
  storage::PlacementPolicy policy = storage::PlacementPolicy::kFastestFit;
  RefactorConfig refactor;
  /// Task-engine knobs from <threads> and <pipeline>.
  ParallelConfig parallel;

  /// Fault-injection plan: seed + per-tier profiles, matched by tier name.
  struct TierFaults {
    std::string tier_name;
    storage::FaultProfile profile;
  };
  std::uint64_t fault_seed = 0;
  std::vector<TierFaults> faults;
  std::optional<storage::RetryPolicy> retry;

  /// Metrics + tracing plan from the optional <observability> element;
  /// nullopt leaves the process-wide observability state untouched.
  std::optional<obs::ObservabilityOptions> observability;

  /// Shared block cache from the optional <cache> element; nullopt runs
  /// uncached. make_hierarchy() attaches it; options() also forwards it so a
  /// Pipeline::load()ed facade shares one cache.
  std::optional<canopus::cache::CacheConfig> cache;

  /// Async-engine shape from the optional <io> element; nullopt keeps the
  /// blocking read path (identical to IoConfig's depth-1 default). Forwarded
  /// through options() into every reader the pipeline opens.
  std::optional<canopus::io::IoConfig> io;

  /// Query-scheduler knobs from the optional <serve> element; nullopt means
  /// Pipeline::submit_query falls back to ServeConfig defaults on first use.
  /// Forwarded through options().
  std::optional<canopus::serve::ServeConfig> serve;

  /// Simulated-cluster shape from the optional <fabric> element; nullopt
  /// means single-node serving. The loader only parses and validates the
  /// options — constructing the fabric::Fabric (and importing a container
  /// into it) is the application's call, since it needs tier specs per node.
  std::optional<canopus::fabric::FabricOptions> fabric;

  /// Workload-adaptive tiering knobs from the optional <tiering> element;
  /// nullopt keeps placement static. Forwarded through options() into
  /// Options::tiering (the pipeline builds the TierAdvisor from it).
  std::optional<canopus::tiering::TieringConfig> tiering;

  /// Builds the configured hierarchy, with the fault injector attached and
  /// the retry policy applied when the document configured them.
  storage::StorageHierarchy make_hierarchy() const;

  /// The document's option blocks as one canopus::Options (parallel,
  /// observability, cache, io, serve, fabric, tiering). retry and faults are left
  /// unset on purpose: make_hierarchy() already applies them, and a Pipeline
  /// built from (make_hierarchy(), options()) must not apply them twice.
  canopus::Options options() const;
};

/// Parses a configuration document; throws Error with a description of the
/// offending element on invalid input.
RuntimeConfig load_config(const std::string& xml_text);

/// Reads and parses a configuration file.
RuntimeConfig load_config_file(const std::string& path);

/// Unit helpers, exposed for reuse/testing.
std::size_t parse_size(const std::string& text);     // "4MiB" -> bytes
double parse_rate(const std::string& text);          // "250MB/s" -> bytes/s
double parse_duration(const std::string& text);      // "5ms" -> seconds

}  // namespace canopus::core
