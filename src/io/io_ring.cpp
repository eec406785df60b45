#include "io/io_ring.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace canopus::io {

double overlap_makespan(const std::vector<double>& costs, std::uint32_t depth,
                        double start) {
  if (depth <= 1) {
    // Ordered fold onto the running clock, matching the per-op fold of a
    // blocking reader exactly (same accumulation order, same bits).
    double sum = start;
    for (const double c : costs) sum += c;
    return sum;
  }
  const std::size_t lanes =
      std::min<std::size_t>(depth, std::max<std::size_t>(1, costs.size()));
  std::vector<double> lane(lanes, 0.0);
  double makespan = 0.0;
  for (const double c : costs) {
    // Greedy list schedule in submission order; min_element's first-of-ties
    // rule keeps the schedule deterministic.
    auto slot = std::min_element(lane.begin(), lane.end());
    *slot += c;
    makespan = std::max(makespan, *slot);
  }
  return start + makespan;
}

IoRing::IoRing(const storage::StorageHierarchy& hierarchy, IoConfig config,
               util::ThreadPool* pool)
    : hierarchy_(hierarchy),
      config_(config),
      pool_(pool),
      max_batch_(std::clamp<std::uint32_t>(
          config.batch == 0 ? 1 : config.batch, 1,
          std::max<std::uint32_t>(1, config.depth))) {}

IoRing::~IoRing() {
  std::unique_lock<std::mutex> lock(mu_);
  // Unexecuted submissions are dropped, not executed: an abandoned level must
  // not advance the tiers' fault stream past what a serial reader abandoning
  // the same level would have read. In-flight execution is joined.
  queue_.clear();
  cv_.wait(lock, [&] { return !executing_ && !driver_scheduled_; });
}

std::size_t IoRing::submit(std::string key) {
  std::unique_lock<std::mutex> lock(mu_);
  const std::size_t id = next_id_++;
  // Group assignment happens here, in submission order, so batch boundaries
  // never depend on how the background driver races the submitter.
  if (group_fill_ >= max_batch_) {
    ++group_counter_;
    group_fill_ = 0;
  }
  ++group_fill_;
  queue_.push_back(Pending{id, std::move(key), group_counter_});
  ++stats_.submitted;
  if (obs::enabled()) {
    obs::MetricsRegistry::global().gauge("io.inflight").set(
        static_cast<std::int64_t>(queue_.size() + ready_.size()));
  }
  maybe_spawn_driver_locked();
  return id;
}

void IoRing::maybe_spawn_driver_locked() {
  // Depth 1 is the blocking path, and a pool worker must not queue a driver
  // on its own pool (the destructor would wait for a task that can only run
  // once this worker is free): both pump inline in wait_next().
  if (pool_ == nullptr || config_.depth <= 1 || driver_scheduled_ ||
      executing_ || queue_.empty() || ready_.size() >= config_.depth ||
      pool_->on_worker_thread()) {
    return;
  }
  driver_scheduled_ = true;
  // The future is intentionally dropped; the destructor joins via the
  // driver_scheduled_/executing_ flags instead.
  (void)pool_->submit([this] {
    std::unique_lock<std::mutex> lock(mu_);
    driver_scheduled_ = false;
    const std::uint32_t d = std::max<std::uint32_t>(1, config_.depth);
    if (!executing_ && !queue_.empty() && ready_.size() < d) {
      pump(lock, /*flush_open_group=*/false);
    }
    cv_.notify_all();
  });
}

void IoRing::pump(std::unique_lock<std::mutex>& lock, bool flush_open_group) {
  CANOPUS_ASSERT(!executing_);
  executing_ = true;
  const std::uint32_t depth = std::max<std::uint32_t>(1, config_.depth);
  while (!queue_.empty()) {
    // The front run: every queued member of the front op's logical group.
    // Groups are contiguous in the queue because submit() assigns them in
    // submission order and pump() only ever takes whole runs.
    const std::size_t group = queue_.front().group;
    std::size_t run = 1;
    while (run < queue_.size() && queue_[run].group == group) ++run;
    const bool closed = group < group_counter_ || run >= max_batch_;
    // The driver leaves an open tail group for wait_next()'s inline pump:
    // issuing a partial group here would split it at a race-dependent point
    // and change the batch-amortized simulated cost run to run.
    if (!closed && !flush_open_group) break;
    // A group is issued whole or not at all; wait for ring slots.
    if (ready_.size() + run > depth) break;
    if (!closed) {
      // Flushing the open tail closes it, so later submissions start a fresh
      // group instead of retroactively extending this one.
      ++group_counter_;
      group_fill_ = 0;
    }
    std::vector<Pending> ops;
    ops.reserve(run);
    for (std::size_t i = 0; i < run; ++i) {
      ops.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    std::vector<std::string> keys;
    keys.reserve(ops.size());
    for (const auto& op : ops) keys.push_back(op.key);
    util::WallTimer submit_timer;
    auto results = hierarchy_.read_batch(keys);
    const double submit_seconds = submit_timer.seconds();
    CANOPUS_ASSERT(results.size() == ops.size());
    std::vector<IoCompletion> done;
    done.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      IoCompletion c;
      c.id = ops[i].id;
      c.key = std::move(ops[i].key);
      c.payload = std::move(results[i].bytes);
      c.io = results[i].io;
      c.error = results[i].error;
      c.deadline_missed = config_.deadline_seconds > 0.0 &&
                          c.io.sim_seconds > config_.deadline_seconds;
      done.push_back(std::move(c));
    }
    if (obs::enabled()) {
      auto& registry = obs::MetricsRegistry::global();
      registry.histogram("io.submit_us").observe(submit_seconds * 1e6);
      for (const auto& c : done) {
        // Simulated per-op latency, same convention as storage.<tier>.read_us.
        registry.histogram("io.complete_us").observe(c.io.sim_seconds * 1e6);
      }
    }
    lock.lock();
    ++stats_.batches;
    for (auto& c : done) note_completion_locked(std::move(c));
    cv_.notify_all();
  }
  executing_ = false;
  cv_.notify_all();
}

void IoRing::note_completion_locked(IoCompletion&& c) {
  if (c.deadline_missed) {
    ++stats_.deadline_misses;
    if (obs::enabled()) {
      obs::MetricsRegistry::global().counter("io.deadline_misses").add(1);
    }
  }
  ready_.push_back(std::move(c));
}

IoCompletion IoRing::wait_next() {
  std::unique_lock<std::mutex> lock(mu_);
  CANOPUS_CHECK(!ready_.empty() || !queue_.empty() || executing_,
                "IoRing::wait_next with no operation outstanding");
  for (;;) {
    if (!ready_.empty()) {
      IoCompletion c = std::move(ready_.front());
      ready_.pop_front();
      ++stats_.completed;
      if (obs::enabled()) {
        obs::MetricsRegistry::global().gauge("io.inflight").set(
            static_cast<std::int64_t>(queue_.size() + ready_.size()));
      }
      // Consuming may have opened a ring slot: restart the driver so I/O
      // keeps running ahead while the caller processes this completion.
      maybe_spawn_driver_locked();
      cv_.notify_all();
      return c;
    }
    if (!queue_.empty() && !executing_) {
      // No background driver is making progress — pump inline, including the
      // open tail group (no further submissions can extend it while this
      // thread blocks here). This keeps the engine live on null pools,
      // saturated pools, and calls from pool workers themselves.
      pump(lock, /*flush_open_group=*/true);
      continue;
    }
    cv_.wait(lock);
  }
}

std::size_t IoRing::in_flight() const {
  std::scoped_lock lock(mu_);
  return queue_.size() + ready_.size();
}

IoRing::Stats IoRing::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace canopus::io
