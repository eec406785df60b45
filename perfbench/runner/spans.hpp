#pragma once
// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps its own calls into each library layer in a ScopedSpan.
// A span records its name, start, end, the span that was open on the same
// thread when it began (its parent) and the operation id the thread is
// working on, so every span of one write, episode or query shares an id.
// Spans stay in per-thread buffers until the run ends; write_chrome() then
// exports them in Chrome trace_event format (one complete "X" event each,
// with id/parent/op in args) for chrome://tracing or Perfetto, and the
// self-time rollup in perfbench/stats.py reads that file back.
//
// A null recorder makes ScopedSpan a no-op, so the untraced loop runs the
// same code with no recording cost beyond a pointer test.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Tags every span the calling thread opens from now on with `op`.
  void begin_op(std::uint64_t op);

  /// Every recorded span, in no particular order.
  std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace_event JSON file; false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  // ids of the spans open on the thread
    std::uint64_t op = 0;
    std::uint32_t tid = 0;
  };
  ThreadLog& local();
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  Span span_;
};

}  // namespace perfbench
