#pragma once
// Transport modes for the write path (Section III-A).
//
// The paper runs Canopus either *in situ* — refactoring on the simulation
// node before anything is written — or *in transit* — staging the raw data
// to auxiliary memory first so the simulation is blocked only for the cheap
// staging write, with refactoring happening off the critical path. Both are
// runtime options. In this reproduction the distinction is what blocks the
// simulation clock:
//
//   kInSitu:    simulation blocks for decimation + delta + compression + the
//               product writes (Pipeline::write's full cost).
//   kInTransit: simulation blocks only for a raw write to the staging tier;
//               the drain phase (read staged raw -> refactor -> place ->
//               evict staged copy) is accounted separately.

#include <string>

#include "core/pipeline.hpp"
#include "core/refactorer.hpp"
#include "mesh/tri_mesh.hpp"

namespace canopus::core {

enum class TransportMode : std::uint8_t {
  kInSitu = 0,
  kInTransit = 1,
};

std::string to_string(TransportMode mode);
TransportMode transport_mode_from_string(const std::string& s);

struct TransportReport {
  /// Simulated seconds the simulation is blocked before resuming compute.
  double simulation_blocked_seconds = 0.0;
  /// Simulated + wall cost of the asynchronous drain (zero for in situ,
  /// where everything is inside the blocked window).
  double drain_seconds = 0.0;
  RefactorReport refactor;
};

/// Writes one variable through `pipeline` (Pipeline::write on its hierarchy,
/// with its concurrency options) under the chosen transport mode. For
/// kInTransit, `staging_tier` names the tier that absorbs the raw burst (e.g.
/// a burst-buffer or DRAM tier); it must fit the raw data or Error is thrown.
/// A failed refactor throws Error carrying the write's Status.
TransportReport write_with_transport(Pipeline& pipeline,
                                     const std::string& path, const std::string& var,
                                     const mesh::TriMesh& mesh,
                                     const mesh::Field& values,
                                     const RefactorConfig& config,
                                     TransportMode mode,
                                     std::size_t staging_tier = 0);

}  // namespace canopus::core
