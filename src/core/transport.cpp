#include "core/transport.hpp"

#include <utility>

#include "util/assert.hpp"

namespace canopus::core {

std::string to_string(TransportMode mode) {
  switch (mode) {
    case TransportMode::kInSitu: return "in-situ";
    case TransportMode::kInTransit: return "in-transit";
  }
  CANOPUS_UNREACHABLE("unknown transport mode");
}

TransportMode transport_mode_from_string(const std::string& s) {
  if (s == "in-situ") return TransportMode::kInSitu;
  if (s == "in-transit") return TransportMode::kInTransit;
  throw Error("unknown transport mode: " + s);
}

namespace {

RefactorReport refactor(Pipeline& pipeline, const std::string& path,
                        const std::string& var, const mesh::TriMesh& mesh,
                        const mesh::Field& values,
                        const RefactorConfig& config) {
  WriteRequest request;
  request.path = path;
  request.var = var;
  request.mesh = &mesh;
  request.values = &values;
  request.config = config;
  WriteResult result;
  const Status status = pipeline.write(request, &result);
  if (!status.ok()) throw Error("write_with_transport: " + status.to_string());
  return std::move(result.report);
}

}  // namespace

TransportReport write_with_transport(Pipeline& pipeline,
                                     const std::string& path, const std::string& var,
                                     const mesh::TriMesh& mesh,
                                     const mesh::Field& values,
                                     const RefactorConfig& config,
                                     TransportMode mode,
                                     std::size_t staging_tier) {
  TransportReport report;
  if (mode == TransportMode::kInSitu) {
    report.refactor = refactor(pipeline, path, var, mesh, values, config);
    report.simulation_blocked_seconds =
        report.refactor.phases.get("decimation") +
        report.refactor.phases.get("delta+compress") +
        report.refactor.phases.get("io");
    return report;
  }

  // In transit: burst the raw bytes to the staging tier — that is all the
  // simulation waits for.
  storage::StorageHierarchy& hierarchy = pipeline.hierarchy();
  const std::string staged_key = path + "/" + var + "/.staged";
  const auto staged_io = hierarchy.write_to(
      staging_tier, staged_key, util::as_bytes_view(values));
  report.simulation_blocked_seconds = staged_io.sim_seconds;

  // Drain (asynchronous to the simulation): read the staged copy back,
  // refactor, place the products, release the staging space.
  util::Bytes raw;
  const auto read_back = hierarchy.read(staged_key, raw);
  const auto staged_values = util::from_bytes<double>(raw);
  report.refactor = refactor(pipeline, path, var, mesh, staged_values, config);
  hierarchy.erase(staged_key);
  report.drain_seconds = read_back.sim_seconds +
                         report.refactor.phases.get("decimation") +
                         report.refactor.phases.get("delta+compress") +
                         report.refactor.phases.get("io");
  return report;
}

}  // namespace canopus::core
