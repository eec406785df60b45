#pragma once
// The read side of Canopus: progressive, elastic data retrieval.
//
// A ProgressiveReader opens a refactored variable, retrieves the base dataset
// from the fast tier, and then refines level by level on demand — retrieve
// delta, decompress, restore (Algorithm 3) — letting analytics trade accuracy
// for speed on the fly (Fig. 1, right side). Every step reports the paper's
// phase breakdown (I/O, decompression, restoration).

#include <functional>
#include <future>
#include <optional>
#include <string>

#include "adios/bp.hpp"
#include "core/geometry_cache.hpp"
#include "core/types.hpp"
#include "io/io_config.hpp"
#include "mesh/tri_mesh.hpp"
#include "storage/hierarchy.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace canopus::core {

/// Cumulative phase timings of all retrieval steps so far, plus the
/// robustness counters of the degraded-path machinery (retries, detected
/// corruption, replica fallbacks, refinement steps that gave up).
struct RetrievalTimings {
  double io_seconds = 0.0;          // simulated tier I/O
  double decompress_seconds = 0.0;  // wall
  double restore_seconds = 0.0;     // wall
  std::size_t bytes_read = 0;
  std::size_t retries = 0;               // failed tier reads that were retried
  std::size_t corruptions_detected = 0;  // CRC failures among those
  std::size_t replica_reads = 0;         // reads served by a replica copy
  std::size_t degraded_steps = 0;        // refine() calls that gave up

  double total() const { return io_seconds + decompress_seconds + restore_seconds; }
  RetrievalTimings& operator+=(const RetrievalTimings& o);
};

/// Outcome of one refinement step.
enum class RefineStatus : std::uint8_t {
  kOk = 0,       // level advanced, no faults along the way
  kRetried = 1,  // level advanced after retries and/or a replica fallback
  kDegraded = 2, // delta unavailable: the reader kept the last good level
};

std::string to_string(RefineStatus status);

/// Concurrency knobs of a ProgressiveReader (see ParallelConfig): worker
/// count for chunk decoding / restoration fan-out and whether refine() may
/// read the following delta level ahead of time.
struct ReaderOptions {
  ParallelConfig parallel;
  /// Worker pool shared across concurrent read sessions (the Pipeline's
  /// session pool). When set it overrides parallel.threads — the reader
  /// spawns no pool of its own — and must outlive the reader.
  util::ThreadPool* shared_pool = nullptr;
  /// Shape of the io::IoRing every delta-chunk read goes through. The
  /// default depth of 1 is the blocking path: one read at a time, inline on
  /// the fetching thread, each step charged the plain per-read sum. With
  /// depth > 1 up to `depth` tier reads stay in flight and a step is charged
  /// their overlapped makespan instead. Restored fields are bitwise-identical
  /// for any depth; only when I/O happens and the step's io_seconds change.
  io::IoConfig io;
};

class ProgressiveReader {
 public:
  /// Opens the container and retrieves the base dataset L^{N-1}.
  ///
  /// Deprecated as a public entry point: prefer canopus::Pipeline::read()
  /// for one-shot retrieval or Pipeline::open() for step-wise refinement
  /// (core/pipeline.hpp); both wrap this constructor behind a
  /// Status-returning API. Kept callable for source compatibility.
  ///
  /// `geometry`, when given, supplies the per-level meshes, restoration
  /// mappings, and spatial orders from a campaign-lifetime GeometryCache so
  /// that no geometry is read or deserialized on the per-timestep path
  /// (meshes are static across a simulation run). Without it, geometry blocks
  /// are fetched on demand and their cost is charged to the step timings. The
  /// cache must outlive the reader.
  ///
  /// Restoration is concurrent per `options.parallel`: fetched delta chunks
  /// decompress in parallel and, with read-ahead on, refine() starts pulling
  /// the following delta off the (slow) tiers while the current one is
  /// applied. Restored fields are bitwise-identical for any worker count, and
  /// every simulated I/O second of a prefetched block is charged to the step
  /// that consumes it, so RetrievalTimings still matches the simulated clock.
  ProgressiveReader(storage::StorageHierarchy& hierarchy, const std::string& path,
                    std::string var, const GeometryCache* geometry = nullptr,
                    ReaderOptions options = {});

  /// Joins any in-flight read-ahead before tearing down.
  ~ProgressiveReader();

  ProgressiveReader(const ProgressiveReader&) = delete;
  ProgressiveReader& operator=(const ProgressiveReader&) = delete;

  std::size_t level_count() const { return levels_; }
  /// Current accuracy level (N-1 = base ... 0 = full accuracy).
  std::uint32_t current_level() const { return current_level_; }
  bool at_full_accuracy() const { return current_level_ == 0; }

  /// Data and geometry at the current accuracy.
  const mesh::Field& values() const { return values_; }
  const mesh::TriMesh& current_mesh() const {
    return geometry_ ? geometry_->meshes[current_level_] : mesh_;
  }

  /// Decimation ratio of the current level relative to L^0.
  double decimation_ratio() const;

  /// One refinement step: fetch delta^{(level-1)-level}, decompress, restore.
  /// Returns the step's timings. Throws when already at full accuracy.
  ///
  /// Failure-prone tiers never surface as exceptions here: when a delta (or
  /// its mesh/mapping) stays unreadable after the hierarchy's retries and
  /// replica fallback, the step reports RefineStatus::kDegraded via
  /// last_status(), the reader keeps the last good accuracy level, and
  /// analytics continue on it (degraded_steps counts the give-ups).
  RetrievalTimings refine();

  /// Outcome of the most recent refine()/refine_region() call.
  RefineStatus last_status() const { return last_status_; }

  /// Focused refinement (Section III-E / IV-D): fetch only the delta chunks
  /// whose extent intersects `roi` and restore the next level with full
  /// accuracy inside the region and estimate-only values outside. Requires
  /// the variable to have been written with delta_chunks > 1; with a single
  /// chunk this degrades to a full refine(). After a regional refinement that
  /// skipped chunks, partially_refined() reports true until the next full
  /// refine() backfills the skipped chunks (it re-reads them and applies
  /// their deltas before descending, restoring full accuracy bitwise). Once a
  /// second regional step stacks on a partial level, the missing deltas have
  /// propagated through the finer level's estimates and the flag becomes
  /// sticky — exact re-establishment is no longer possible.
  RetrievalTimings refine_region(const mesh::Aabb& roi);

  /// True when some vertices of the current level carry estimate-only values
  /// because a region-of-interest refinement skipped their delta chunks.
  bool partially_refined() const { return partially_refined_; }

  /// Refines until `level` (inclusive) or a step degrades (check
  /// last_status()); returns accumulated step timings.
  RetrievalTimings refine_to(std::uint32_t level);

  /// Automated termination (Section III-E): refines until the RMS change
  /// between consecutive levels drops below `rmse_threshold` (computed on the
  /// refined level against its estimate), full accuracy is reached, or a
  /// step degrades. Throws Error on a non-finite threshold; a threshold <= 0
  /// can never exceed an RMS (which is >= 0), so it refines to full accuracy
  /// — the documented way to say "no early stop".
  RetrievalTimings refine_until(double rmse_threshold);

  /// Budgeted refinement for the serve-layer scheduler: before each step,
  /// `admit(next_level)` decides whether to take it (the scheduler prices
  /// the step with serve::CostModel). Stops when admit returns false, full
  /// accuracy is reached, or a step degrades; returns accumulated step
  /// timings.
  RetrievalTimings refine_while(const std::function<bool(std::uint32_t)>& admit);

  /// RMS of the delta applied by the most recent successful refine() /
  /// refine_region() — the achieved-accuracy proxy the scheduler reports
  /// (for a regional step it is a lower bound: skipped chunks count as
  /// zero). Empty before the first refinement.
  std::optional<double> last_delta_rms() const { return last_delta_rms_; }

  /// Container metadata of the open variable (block records with per-chunk
  /// sizes, tier placements, and object keys) — the cost model's input.
  adios::VarInfo var_info() const { return reader_.inq_var(var_); }

  /// True when a campaign GeometryCache supplies meshes/mappings (no
  /// per-step geometry I/O).
  bool has_geometry() const { return geometry_ != nullptr; }

  /// Timings accumulated since open (includes the base retrieval).
  const RetrievalTimings& cumulative() const { return cumulative_; }

 private:
  /// Raw (still compressed) delta chunks of one level, in the order they
  /// were asked for. On a failed fetch, `chunks` holds the successfully read
  /// prefix and `error` the first failure, so the consumer can charge the
  /// partial timings and then degrade.
  struct FetchedChunks {
    std::uint32_t level = 0;
    std::vector<adios::BpReader::RawChunk> chunks;
    std::exception_ptr error;
  };

  /// Chunks a regional refinement skipped, remembered so the next full
  /// refine() can re-establish full accuracy exactly: restoration is
  /// fine = estimate + delta and skipped chunks were applied as delta = 0,
  /// so re-reading them and adding their (unpermuted) values is an exact
  /// additive fix-up. Only recorded while the reader was clean — once
  /// partial levels stack, the missing contribution has propagated through
  /// later estimates and partially_refined_ stays sticky.
  struct SkippedChunks {
    std::uint32_t level = 0;              // the partially refined level
    ChunkIndex index;
    std::vector<std::uint32_t> chunks;    // chunk ids not fetched
  };

  /// Re-reads the pending skipped chunks of the current level and applies
  /// their deltas additively, clearing partially_refined_. On a tier fault
  /// mid-way the chunks that landed are applied and popped before the fault
  /// propagates to the caller's degrade path, leaving an exactly resumable
  /// remainder.
  void backfill_skipped(RetrievalTimings& step);

  /// Records a failed step: counts it, sets kDegraded, keeps reader state.
  RetrievalTimings degrade(RetrievalTimings step);

  util::ThreadPool& pool() const;
  /// The one delta-chunk read path: submits the keys of delta chunks `ids`
  /// of `level`, in order, to an io::IoRing shaped by the reader's IoConfig
  /// and collects the payloads. Stops at the first failed read, keeping the
  /// landed prefix; never throws. Safe to run off-thread (the read-ahead
  /// task): it only reads through the thread-safe hierarchy.
  FetchedChunks fetch_chunks(std::uint32_t level,
                             const std::vector<std::uint32_t>& ids) const;
  /// Ids of every delta chunk of `level`, ascending (empty when the level has
  /// no delta block).
  std::vector<std::uint32_t> all_chunks(std::uint32_t level) const;
  /// Consumes a matching in-flight read-ahead, or fetches every chunk of
  /// `level` now. A stale read-ahead (different level) is discarded; its
  /// speculative reads never enter the retrieval clock.
  FetchedChunks take_prefetch(std::uint32_t level);
  /// Kicks off the read-ahead for `level` (no-op when disabled).
  void start_prefetch(std::uint32_t level);
  /// Charges a fetch to `step` (per-read counters; on the simulated clock
  /// the reads' makespan at io.depth), rethrows its failure, and decodes its
  /// chunks in parallel through the decoded-array cache. One array per
  /// fetched chunk, in fetch order.
  std::vector<cache::BlockCache::ArrayPtr> decode_chunks(
      const FetchedChunks& fetched, RetrievalTimings& step);

  storage::StorageHierarchy& hierarchy_;
  adios::BpReader reader_;
  std::string var_;
  const GeometryCache* geometry_ = nullptr;  // not owned; may be null
  std::size_t levels_ = 0;
  EstimateMode estimate_ = EstimateMode::kUniformThirds;

  std::uint32_t current_level_ = 0;
  RefineStatus last_status_ = RefineStatus::kOk;
  bool partially_refined_ = false;
  std::optional<SkippedChunks> skipped_;
  std::optional<double> last_delta_rms_;
  mesh::TriMesh mesh_;  // only populated when geometry_ is null
  mesh::Field values_;
  // Lazily resolved in decimation_ratio() const from container metadata.
  mutable std::optional<std::size_t> full_vertex_count_;
  RetrievalTimings cumulative_;

  // Worker pool: the session-shared one when given, a dedicated one when
  // options pin a thread count, the process-global pool otherwise.
  util::ThreadPool* shared_pool_ = nullptr;  // not owned; may be null
  mutable std::optional<util::ThreadPool> local_pool_;
  bool read_ahead_ = false;
  io::IoConfig io_config_;
  std::future<FetchedChunks> prefetch_;
  std::optional<std::uint32_t> prefetch_level_;  // level of the pending future
};

}  // namespace canopus::core
