#pragma once
// Asynchronous submission/completion engine: a bounded ring of in-flight tier
// operations with batched submission.
//
// The shape follows ScaleStore's AsyncReadBuffer: a session submits the keys
// it needs, the engine keeps up to `depth` operations in flight against the
// storage hierarchy (issuing them through the batched submit seam,
// StorageHierarchy::read_batch, in groups of up to `batch`), and the session
// consumes completions in submission order. Every delta-chunk read of the
// progressive reader goes through one (ProgressiveReader::fetch_chunks).
//
// Determinism: batches execute strictly in submission order by exactly one
// executor at a time, and read_batch preserves key order inside a batch, so
// the tiers (and the seeded fault injector) see the same operation sequence
// as a serial read loop — batched submission changes when I/O happens, never
// what happens to each op. Batch *boundaries* are deterministic too: every op
// is assigned to a logical group of exactly `batch` ops at submit time, and a
// group is always issued as one read_batch call. This matters because
// read_batch amortizes tier round-trip latency within a call — if the batch
// split depended on how far the submitter had raced ahead of the background
// driver, the simulated clock would differ run to run. The driver therefore
// executes only *closed* groups (a full `batch` of members); the open tail
// group is flushed solely by wait_next()'s inline pump, whose timing is fixed
// by the caller's submit/wait sequence. Execution is opportunistic: a driver
// task on the worker pool drains closed groups in the background, and
// wait_next() pumps inline whenever no driver is active (including pools with
// zero spare workers), so consuming completions can never deadlock. A ring of
// depth 1 is the blocking path: it never spawns a driver, so each read runs
// inline in wait_next() on the consumer's thread, one at a time.
//
// Accounting for overlapped I/O lives next door: overlap_makespan() converts
// a list of per-op simulated costs into the simulated wall-clock of running
// them `depth`-way overlapped, which is what RetrievalTimings charges (sum ==
// makespan at depth 1, so blocking accounting is the per-op fold).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "io/io_config.hpp"
#include "storage/hierarchy.hpp"
#include "util/thread_pool.hpp"

namespace canopus::io {

/// Simulated clock after executing ops with the given sim costs on `depth`
/// overlapped lanes, in submission order (greedy earliest-free-lane list
/// schedule — exactly the bound a ring of `depth` slots achieves), when the
/// clock read `start` before the first op: start + makespan. Deterministic;
/// depth <= 1 reduces to adding each cost onto `start` in order, so a
/// blocking step stays bit-identical to a serial per-op fold even when
/// earlier reads of the same step were charged first.
double overlap_makespan(const std::vector<double>& costs, std::uint32_t depth,
                        double start = 0.0);

/// One finished operation, handed out in submission order.
struct IoCompletion {
  std::size_t id = 0;     // submission index (0-based, monotonically rising)
  std::string key;        // the object read
  util::Bytes payload;    // empty when error is set
  storage::IoResult io;   // per-op accounting (batched amortization applied)
  std::exception_ptr error;      // the op's failure, exactly as read() throws
  bool deadline_missed = false;  // sim cost exceeded IoConfig::deadline_seconds
};

class IoRing {
 public:
  /// Rings issue reads against `hierarchy`; `pool` (optional) supplies the
  /// background driver. With a null pool, a depth of 1, or a submitter that
  /// is itself one of the pool's workers, no driver is spawned and every read
  /// executes inline in wait_next() on the calling thread. (A driver queued
  /// behind a busy worker that waits on it would never run.) Both the
  /// hierarchy and the pool must outlive the ring.
  IoRing(const storage::StorageHierarchy& hierarchy, IoConfig config,
         util::ThreadPool* pool = nullptr);

  /// Drains every submitted op (results discarded) before tearing down.
  ~IoRing();

  IoRing(const IoRing&) = delete;
  IoRing& operator=(const IoRing&) = delete;

  const IoConfig& config() const { return config_; }

  /// Enqueues a read of `key`; returns its submission id. Never blocks — the
  /// ring bounds in-flight *execution*, not submission: batches stop being
  /// issued while `depth` completions are waiting to be consumed, which is
  /// what bounds payload memory.
  std::size_t submit(std::string key);

  /// Next completion in submission order. Blocks until ready, pumping
  /// batches inline when no background driver is making progress. Calling
  /// with nothing outstanding is a bug (asserts).
  IoCompletion wait_next();

  /// Ops submitted and not yet consumed.
  std::size_t in_flight() const;

  /// Monotonic engine counters (independent of the obs layer so tests can
  /// assert exact accounting with observability off).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;          // read_batch calls issued
    std::uint64_t deadline_misses = 0;  // ops over IoConfig::deadline_seconds
  };
  Stats stats() const;

 private:
  struct Pending {
    std::size_t id;
    std::string key;
    std::size_t group;  // logical batch assigned at submit time
  };

  /// Executes queued groups while completions stay under the depth bound.
  /// Runs with `lock` held; drops it around the actual I/O. With
  /// `flush_open_group` false (the background driver) only closed groups are
  /// issued; true (inline from wait_next) also flushes — and closes — the
  /// open tail group.
  void pump(std::unique_lock<std::mutex>& lock, bool flush_open_group);
  void note_completion_locked(IoCompletion&& c);
  void maybe_spawn_driver_locked();

  const storage::StorageHierarchy& hierarchy_;
  const IoConfig config_;
  util::ThreadPool* pool_;  // not owned; may be null
  const std::uint32_t max_batch_;  // effective group size (batch clamped)

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;        // submitted, not yet executed
  std::deque<IoCompletion> ready_;   // executed, not yet consumed (in order)
  bool executing_ = false;           // exactly one pump loop at a time
  bool driver_scheduled_ = false;    // a pool driver task is queued/running
  std::size_t next_id_ = 0;
  std::size_t group_counter_ = 0;    // id of the currently open group
  std::uint32_t group_fill_ = 0;     // members submitted to the open group
  Stats stats_;
};

}  // namespace canopus::io
