#pragma once
// Shared helpers for the test suites.
//
// write_field / write_cascade / open_reader are the suites' shorthand for the
// public entry points: each builds a canopus::Pipeline over the given
// hierarchy with the given Options and calls Pipeline::write or
// Pipeline::open, turning a failed Status into a canopus::Error so the test
// fails where the call failed.
//
// CANOPUS_TEST_SEED makes CI failures reproducible: every randomized sweep
// derives its per-case RNG seeds from this base (default 0, the historical
// value, so unset keeps the exact seeds the suites always ran). A red run
// prints the offending seed; replay it locally with
//
//   CANOPUS_TEST_SEED=<base> ctest --test-dir build -R <suite>
//
// ctest inherits the variable from the calling environment, so exporting it
// before `ctest` (as CI does) reaches every test process.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "core/pipeline.hpp"

namespace canopus::test {

/// Pipeline::write of (mesh, values) as `var` into `path`; returns the report.
inline core::RefactorReport write_field(storage::StorageHierarchy& tiers,
                                        const std::string& path,
                                        const std::string& var,
                                        const mesh::TriMesh& mesh,
                                        const mesh::Field& values,
                                        const core::RefactorConfig& config,
                                        const Options& options = {}) {
  Pipeline pipeline(tiers, options);
  WriteRequest request;
  request.path = path;
  request.var = var;
  request.mesh = &mesh;
  request.values = &values;
  request.config = config;
  WriteResult result;
  const Status status = pipeline.write(request, &result);
  if (!status.ok()) throw Error("write " + path + ": " + status.to_string());
  return std::move(result.report);
}

/// Pipeline::write of a prebuilt cascade (no "decimation" phase).
inline core::RefactorReport write_cascade(storage::StorageHierarchy& tiers,
                                          const std::string& path,
                                          const std::string& var,
                                          const mesh::Cascade& cascade,
                                          const core::RefactorConfig& config,
                                          const Options& options = {}) {
  Pipeline pipeline(tiers, options);
  WriteRequest request;
  request.path = path;
  request.var = var;
  request.cascade = &cascade;
  request.config = config;
  WriteResult result;
  const Status status = pipeline.write(request, &result);
  if (!status.ok()) throw Error("write " + path + ": " + status.to_string());
  return std::move(result.report);
}

/// Pipeline::open: a reader of `var` at base accuracy, with the pipeline's
/// parallel and io options; `geometry` (optional) must outlive it.
inline std::unique_ptr<core::ProgressiveReader> open_reader(
    storage::StorageHierarchy& tiers, const std::string& path,
    const std::string& var, const core::GeometryCache* geometry = nullptr,
    const Options& options = {}) {
  Pipeline pipeline(tiers, options);
  ReadRequest request;
  request.path = path;
  request.var = var;
  request.geometry = geometry;
  std::unique_ptr<core::ProgressiveReader> reader;
  const Status status = pipeline.open(request, &reader);
  if (!status.ok()) throw Error("open " + path + ": " + status.to_string());
  return reader;
}

/// Base seed for randomized sweeps: $CANOPUS_TEST_SEED, or 0 when unset.
inline std::uint64_t test_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("CANOPUS_TEST_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10)
                          : std::uint64_t{0};
  }();
  return seed;
}

}  // namespace canopus::test
