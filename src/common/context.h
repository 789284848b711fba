#ifndef STMAKER_COMMON_CONTEXT_H_
#define STMAKER_COMMON_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/status.h"

/// \file
/// \brief Per-request deadline / cancellation / cost-budget propagation.
///
/// Every serving-path entry point (Summarize, Partition, Calibrate, Match,
/// Route, ...) accepts an optional `const RequestContext*`. A null context
/// means "no limits" — exactly the pre-context behaviour, so library code
/// and tests that do not care about deadlines are unaffected.
///
/// Check-point placement rules (DESIGN.md §10):
///   1. Every entry point taking a context calls ctx->Check() once up
///      front, so an already-expired or already-cancelled request fails
///      deterministically even when the input is tiny.
///   2. Every unbounded or data-proportional loop (Dijkstra expansion,
///      the partition DP rows, calibration's polyline scan, the Viterbi
///      recursion) carries a CancelCheck and calls Tick() per iteration;
///      the clock is consulted every `stride` ticks to amortize its cost.
///   3. A deadline/cancel abort propagates as kDeadlineExceeded /
///      kCancelled — never as a silently truncated result — and such
///      statuses are never memoized in any cache (they describe the
///      request, not the computation).

namespace stmaker {

class Trace;  // common/trace.h

/// \brief Cheap, copyable view of a cancellation flag.
///
/// A default-constructed token can never be cancelled (the common case for
/// code running without a CancelSource); tokens obtained from a
/// CancelSource observe its Cancel() calls from any thread.
class CancelToken {
 public:
  CancelToken() = default;

  /// Thread-safe (one relaxed load).
  /// \return True once the owning CancelSource has been cancelled; always
  /// false for a default-constructed token.
  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// \brief Owner side of a cancellation flag (e.g. a serve-mode watchdog).
///
/// Cancellation is cooperative and one-way: once Cancel() is called every
/// token stays cancelled forever. Thread-safe.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// \return A token observing this source's flag; copy it into requests.
  CancelToken token() const { return CancelToken(flag_); }
  /// Fires the flag; every outstanding token reads cancelled from now on.
  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  /// \return True once Cancel() has been called.
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// \brief Limits attached to one request: a monotonic-clock deadline, a
/// cooperative cancellation token, and per-call cost budgets.
///
/// Plain value type; copy it freely. The default-constructed context has
/// no deadline, cannot be cancelled, and has unlimited budgets — identical
/// to passing a null context pointer.
struct RequestContext {
  using Clock = std::chrono::steady_clock;

  /// Absolute deadline on the monotonic clock; time_point::max() = none.
  Clock::time_point deadline = Clock::time_point::max();

  /// Cooperative cancellation flag (default: never cancels).
  CancelToken cancel;

  /// Per-Route()-call cap on Dijkstra/CH node expansions; 0 = unlimited.
  /// Applies to roadnet shortest-path searches only (see DESIGN.md §10).
  size_t max_node_expansions = 0;

  /// Optional span collector for this request (common/trace.h); null (the
  /// default) disables tracing — pipeline spans then cost one branch.
  /// The Trace must outlive every call carrying this context. Tracing is
  /// observational only: attaching one never changes any result
  /// (DESIGN.md §11; the golden suite pins byte-identical output).
  Trace* trace = nullptr;

  /// \param timeout Time allowed from now; non-positive values produce an
  /// already-expired deadline (useful in tests).
  /// \return A context whose deadline is `timeout` from now.
  static RequestContext WithDeadline(std::chrono::milliseconds timeout) {
    RequestContext ctx;
    ctx.deadline = Clock::now() + timeout;
    return ctx;
  }

  /// \return True when a finite deadline is set.
  bool has_deadline() const { return deadline != Clock::time_point::max(); }
  /// \return True when a finite deadline is set and has passed.
  bool expired() const { return has_deadline() && Clock::now() >= deadline; }

  /// \return Milliseconds until the deadline (negative once expired);
  /// +infinity when no deadline is set.
  double RemainingMs() const;

  /// Cancellation wins over the deadline because it is the more specific
  /// signal (the watchdog cancels *because* the deadline passed).
  /// \return kCancelled if the token fired, else kDeadlineExceeded if the
  /// deadline passed, else OK.
  Status Check() const;
};

/// The one-liner every entry point uses for its up-front check.
/// \param ctx The request's context; null means "no limits".
/// \return OK for a null context, else ctx->Check().
inline Status CheckContext(const RequestContext* ctx) {
  return ctx == nullptr ? Status::OK() : ctx->Check();
}

/// \param ctx The request's context, possibly null.
/// \return The request's span collector, or null for a null/untraced
/// context — exactly what ScopedSpan's first argument wants.
inline Trace* TraceOf(const RequestContext* ctx) {
  return ctx == nullptr ? nullptr : ctx->trace;
}

/// Results carrying these codes must never be cached: a later identical
/// call with a fresh context could succeed.
/// \param code The status code to classify.
/// \return True for codes that describe the request's limits rather than
/// the computation itself.
inline bool IsContextError(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled ||
         code == StatusCode::kResourceExhausted;
}

/// \brief Amortized per-iteration context check for hot loops.
///
/// Tick() is one decrement on most calls; every `stride` ticks it consults
/// the cancellation flag and the clock via ctx->Check(). With a null
/// context Tick() always returns OK. Not thread-safe — make one per loop,
/// per thread.
///
/// The stride bounds how late a deadline is noticed: at most `stride`
/// iterations of the enclosing loop after expiry. 256 keeps that latency
/// well under a millisecond for every loop body in this codebase while
/// making the clock read cost unmeasurable.
class CancelCheck {
 public:
  static constexpr uint32_t kDefaultStride = 256;

  /// \param ctx The request's context; null disables all checking.
  /// \param stride Number of Tick() calls between real ctx->Check() calls;
  /// 0 is treated as 1.
  explicit CancelCheck(const RequestContext* ctx,
                       uint32_t stride = kDefaultStride)
      : ctx_(ctx), stride_(stride == 0 ? 1 : stride), countdown_(stride_) {}

  /// Cheap iteration check; see class comment.
  /// \return OK on most calls; the context's error once a check fires.
  Status Tick() {
    if (ctx_ == nullptr) return Status::OK();
    if (--countdown_ > 0) return Status::OK();
    countdown_ = stride_;
    return ctx_->Check();
  }

 private:
  const RequestContext* ctx_;
  uint32_t stride_;
  uint32_t countdown_;
};

}  // namespace stmaker

#endif  // STMAKER_COMMON_CONTEXT_H_
