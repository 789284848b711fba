#ifndef STMAKER_COMMON_TRACE_H_
#define STMAKER_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

/// \file
/// \brief Lightweight per-request span tracing.
///
/// A Trace collects the finished spans of one request; ScopedSpan is the
/// RAII recorder a pipeline stage opens on entry. Parenthood is inferred
/// from lexical nesting on the recording thread (a thread-local current
/// span), so `ScopedSpan a(...); { ScopedSpan b(...); }` yields b as a
/// child of a without any plumbing. Spans recorded by different threads of
/// the same request become additional roots — correct, if flat, rather
/// than a fabricated order.
///
/// Overhead contract (DESIGN.md §11): tracing is off unless a request
/// carries a Trace, and a disabled ScopedSpan compiles down to one null
/// check in the constructor and one in the destructor — no clock read, no
/// allocation, no lock. An enabled span costs two clock reads and one
/// mutex-guarded vector append at destruction. Tracing observes, never
/// steers: enabling it must not change a single output byte (the golden
/// suite pins this).

namespace stmaker {

/// One finished span. Times are milliseconds since the trace epoch (the
/// Trace's construction), so a trace is self-contained and serializable
/// without wall-clock context.
struct TraceEvent {
  uint64_t id = 0;         ///< 1-based, unique within the trace.
  uint64_t parent = 0;     ///< 0 = a root span.
  std::string name;
  double start_ms = 0;
  double end_ms = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// \brief The span collection of one request. Thread-safe for concurrent
/// ScopedSpan recording; Events()/ToJson()/ToNdjson() snapshot under the
/// same lock.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// \return Finished spans in completion order (children before their
  /// parents, since a child's destructor runs first).
  std::vector<TraceEvent> Events() const;

  /// The assembled parent/child tree as one compact JSON object:
  ///   {"spans": [{"name": ..., "start_ms": ..., "end_ms": ...,
  ///               "children": [...]}]}
  /// Spans at each level are ordered by start time.
  /// \return A single-line JSON string.
  std::string ToJson() const;

  /// Flat NDJSON event log: one JSON object per line, one line per span,
  /// in completion order. Each line carries id/parent so the tree can be
  /// rebuilt downstream.
  /// \return Newline-delimited JSON, one event per line.
  std::string ToNdjson() const;

 private:
  friend class ScopedSpan;

  double SinceEpochMs(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - epoch_).count();
  }
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(TraceEvent event);

  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// \brief RAII span recorder; records one span from construction to scope
/// exit.
class ScopedSpan {
 public:
  /// \param trace Destination trace, or null for the disabled fast path
  /// (one branch per constructor/destructor, nothing recorded).
  /// \param name Span name; must be a string literal (or otherwise outlive
  /// the span) — it is copied only when the span completes.
  /// \param latency_hist Optional histogram that also receives the span's
  /// duration in milliseconds (recorded even when `trace` is null).
  ScopedSpan(Trace* trace, const char* name,
             Histogram* latency_hist = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  const char* name_;
  Histogram* hist_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Trace::Clock::time_point start_;
  ScopedSpan* prev_ = nullptr;  ///< Enclosing span on this thread.
};

}  // namespace stmaker

#endif  // STMAKER_COMMON_TRACE_H_
