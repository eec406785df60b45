#pragma once
// The write engine of Canopus: delta -> compress -> place.
//
// refactor_and_write() runs the Section III pipeline for one variable over a
// decimation cascade of an unstructured triangular mesh and persists every
// product (base, deltas, per-level meshes, restoration mappings) into a BP
// container across the storage hierarchy. The returned report carries the
// paper's Fig. 6b phase breakdown plus per-product sizes for the Fig. 5
// comparison. Applications come in through canopus::Pipeline::write()
// (core/pipeline.hpp), which builds the cascade, times the "decimation"
// phase, supplies the pipeline's ParallelConfig and maps failures to a
// Status; it is the engine's only caller.

#include <optional>
#include <string>
#include <vector>

#include "adios/bp.hpp"
#include "core/types.hpp"
#include "mesh/cascade.hpp"
#include "storage/hierarchy.hpp"
#include "util/timer.hpp"

namespace canopus::core {

/// Size accounting for one stored product.
struct ProductSize {
  std::string name;           // "base", "delta0", "delta1", ...
  std::uint32_t level = 0;
  std::size_t raw_bytes = 0;
  std::size_t stored_bytes = 0;
  /// Slowest (highest-index) tier holding any chunk of the product — the one
  /// that bounds a retrieval of the whole product.
  std::uint32_t tier = 0;
  /// Tier of every stored chunk, in chunk order (single-chunk products carry
  /// one entry). Hint fallback and striping policies can scatter a chunked
  /// delta across tiers, so one scalar cannot describe the placement.
  std::vector<std::uint32_t> chunk_tiers;
};

struct RefactorReport {
  /// Phase seconds: "decimation", "delta+compress", "io".
  util::PhaseTimer phases;
  std::vector<ProductSize> products;
  /// Vertex counts per level, finest first.
  std::vector<std::size_t> level_vertices;

  std::size_t total_raw_bytes() const;
  std::size_t total_stored_bytes() const;
};

/// Paper Fig. 1 layout: base on the fastest tier, deltas progressively lower
/// (finest delta on the slowest). Level l's product of `nbytes` bytes goes
/// `N-1-l` tiers down, clamped to the stack depth; nullopt (the hierarchy's
/// generic bypass placement) when tiered placement is off or that tier has
/// no room.
std::optional<std::uint32_t> tier_hint_for(
    const RefactorConfig& config, const storage::StorageHierarchy& hierarchy,
    std::uint32_t level, std::size_t nbytes);

/// The cascade a refactor of `config` decimates into.
mesh::CascadeOptions cascade_options(const RefactorConfig& config);

/// Writes the prebuilt level hierarchy `cascade` (built with
/// cascade_options(config)) as variable `var` into the container at `path`,
/// appending its "delta+compress" and "io" phases to `report`. The input
/// (level 0) itself is not stored — only the base and the deltas, per
/// Section III-C2.
///
/// The pipeline is concurrent per `parallel`: delta chunks encode in
/// parallel, the Morton permutation and per-chunk bounding boxes fan out on
/// the pool, and level l's mapping+delta computation overlaps level l+1's
/// compression commit. A single committer serializes every write into the
/// container in the same order as the serial pipeline, so placement, the
/// Fig. 6b phase accounting, and all stored bytes are bitwise-identical for
/// any thread count.
void refactor_and_write(storage::StorageHierarchy& hierarchy,
                        const std::string& path, const std::string& var,
                        const mesh::Cascade& cascade,
                        const RefactorConfig& config,
                        const ParallelConfig& parallel,
                        RefactorReport& report);

/// Baseline for Fig. 5: compress every level directly (no deltas) and report
/// the same size accounting. Nothing is written to storage.
RefactorReport direct_multilevel_sizes(const mesh::TriMesh& mesh,
                                       const mesh::Field& values,
                                       const RefactorConfig& config);

}  // namespace canopus::core
