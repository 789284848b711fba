// Unit tests for the request-context subsystem: deadlines, CancelCheck
// amortization, cache counters, and bounded thread-pool admission.
// Everything here is deterministic — deadlines in the past, explicit
// admission limits — so no test depends on scheduler timing.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "common/context.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace stmaker {
namespace {

using std::chrono::milliseconds;

// --------------------------------------------------------------------------
// RequestContext
// --------------------------------------------------------------------------

TEST(RequestContextTest, DefaultContextHasNoLimits) {
  RequestContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(RequestContextTest, NullContextIsAlwaysOk) {
  EXPECT_TRUE(CheckContext(nullptr).ok());
}

TEST(RequestContextTest, ExpiredDeadlineReportsDeadlineExceeded) {
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(-1));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.expired());
  Status status = ctx.Check();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(RequestContextTest, FutureDeadlineIsOk) {
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(60000));
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(RequestContextTest, IsContextErrorCoversExactlyTheRequestCodes) {
  EXPECT_TRUE(IsContextError(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsContextError(StatusCode::kResourceExhausted));
  // Only a model reload dropped at shutdown is cancelled; no request
  // limit produces it.
  EXPECT_FALSE(IsContextError(StatusCode::kCancelled));
  EXPECT_FALSE(IsContextError(StatusCode::kOk));
  EXPECT_FALSE(IsContextError(StatusCode::kIoError));
  EXPECT_FALSE(IsContextError(StatusCode::kNotFound));
  EXPECT_FALSE(IsContextError(StatusCode::kInternal));
}

// --------------------------------------------------------------------------
// CancelCheck
// --------------------------------------------------------------------------

TEST(CancelCheckTest, NullContextTicksForever) {
  CancelCheck check(nullptr, /*stride=*/1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(check.Tick().ok());
  }
}

TEST(CancelCheckTest, ChecksOnlyEveryStrideTicks) {
  // Expired from the start.
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(-1));
  CancelCheck check(&ctx, /*stride=*/4);
  // The first stride-1 ticks only decrement; the stride-th consults the
  // context and sees the expired deadline.
  EXPECT_TRUE(check.Tick().ok());
  EXPECT_TRUE(check.Tick().ok());
  EXPECT_TRUE(check.Tick().ok());
  EXPECT_EQ(check.Tick().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelCheckTest, ZeroStrideBehavesAsEveryTick) {
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(-1));
  CancelCheck check(&ctx, /*stride=*/0);
  EXPECT_EQ(check.Tick().code(), StatusCode::kDeadlineExceeded);
}

// --------------------------------------------------------------------------
// CacheStats / LruCache counters
// --------------------------------------------------------------------------

TEST(CacheStatsTest, CountersTrackHitsMissesAndEvictions) {
  LruCache<int, std::string> cache(2);
  EXPECT_EQ(cache.Get(1), nullptr);  // miss
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_NE(cache.Get(1), nullptr);  // hit; 1 now most recent
  cache.Put(3, "three");             // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);  // miss (evicted)
  ASSERT_NE(cache.Get(3), nullptr);  // hit

  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.lookups(), 4u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(CacheStatsTest, OverwritingAKeyIsNotAnEviction) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(1, 11);  // overwrite in place
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(CacheStatsTest, ToStringIsHumanReadable) {
  CacheStats stats{3, 1, 2};
  EXPECT_EQ(stats.ToString(),
            "3 hits / 1 misses (75.0% hit rate), 2 evictions");
  EXPECT_EQ(CacheStats{}.ToString(),
            "0 hits / 0 misses (0.0% hit rate), 0 evictions");
}

// --------------------------------------------------------------------------
// ThreadPool bounded admission
// --------------------------------------------------------------------------

TEST(TrySubmitTest, RejectsBeyondTheInflightLimit) {
  // Rejections are also counted process-wide (threadpool.rejected), so the
  // registry delta must track pool.rejected() exactly.
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();

  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Occupy the single worker so later submissions stay queued.
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    ++ran;
  });
  // One executing; admit one more (limit 2), then reject.
  EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }, /*max_inflight=*/2));
  EXPECT_FALSE(pool.TrySubmit([&] { ++ran; }, /*max_inflight=*/2));
  EXPECT_EQ(pool.rejected(), 1u);
  release.store(true);
  pool.Wait();
  EXPECT_EQ(ran.load(), 2);  // the rejected task never ran
  EXPECT_EQ(pool.admitted(), 2u);

  // Capacity freed: admission works again.
  EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }, /*max_inflight=*/2));
  pool.Wait();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.admitted(), 3u);
  EXPECT_EQ(pool.rejected(), 1u);

  MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(after.counter("threadpool.rejected") -
                before.counter("threadpool.rejected"),
            1u);
  EXPECT_EQ(after.counter("threadpool.admitted") -
                before.counter("threadpool.admitted"),
            3u);
}

}  // namespace
}  // namespace stmaker
