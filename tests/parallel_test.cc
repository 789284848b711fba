// Tests for the parallel pipeline: thread-pool/loop primitives, the LRU
// cache, the visit corpus shard Merge(), and — the load-bearing property —
// that thread count never changes any result: training, single summaries,
// and batch summaries are byte-identical at 1, 2, and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/parallel.h"
#include "core/stmaker.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

// --- Primitives. ------------------------------------------------------------

TEST(ResolveThreadCountTest, PositivePassesThroughZeroResolvesHardware) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  // The pool caps workers at the core count (oversubscribing a CPU-bound
  // pool only adds latency), so the spawned count is 4 or the hardware
  // concurrency, whichever is smaller.
  EXPECT_EQ(pool.num_threads(), std::min(4, ResolveThreadCount(0)));
  EXPECT_GE(pool.num_threads(), 1);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (wave + 1) * 100);
  }
}

TEST(ParallelForTest, BlocksTileTheRangeAndDependOnlyOnInputs) {
  for (size_t n : {0UL, 1UL, 2UL, 7UL, 64UL, 1000UL}) {
    for (int threads : {1, 2, 3, 4, 8}) {
      std::vector<std::atomic<int>> touched(n);
      for (auto& t : touched) t.store(0);
      ParallelFor(n, threads, [&](size_t begin, size_t end, int shard) {
        EXPECT_LT(begin, end);
        EXPECT_GE(shard, 0);
        for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(touched[i].load(), 1) << "n=" << n << " threads=" << threads
                                        << " index " << i;
      }
    }
  }
}

TEST(ParallelForTest, ShardOfEachIndexIsDeterministic) {
  // The block an index lands in is a function of (n, threads) only, which
  // is what lets shard-merge reductions replay the serial order.
  const size_t n = 103;
  const int threads = 4;
  std::vector<int> first(n, -1);
  ParallelFor(n, threads, [&](size_t begin, size_t end, int shard) {
    for (size_t i = begin; i < end; ++i) first[i] = shard;
  });
  for (int round = 0; round < 5; ++round) {
    std::vector<int> again(n, -1);
    ParallelFor(n, threads, [&](size_t begin, size_t end, int shard) {
      for (size_t i = begin; i < end; ++i) again[i] = shard;
    });
    EXPECT_EQ(again, first);
  }
  // Contiguous ascending blocks.
  for (size_t i = 1; i < n; ++i) EXPECT_GE(first[i], first[i - 1]);
}

TEST(LruCacheTest, EvictsLeastRecentlyTouched) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_NE(cache.Get(1), nullptr);  // 1 is now most recent
  cache.Put(3, "three");             // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), "one");
  ASSERT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 4u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, PutOverwrites) {
  LruCache<int, int> cache(4);
  cache.Put(1, 10);
  cache.Put(1, 11);
  ASSERT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(*cache.Get(1), 11);
  EXPECT_EQ(cache.size(), 1u);
}

// --- The visit corpus Train builds after the parallel pass. -----------------

TEST(VisitCorpusTest, AnonymousRecordsStayDistinctAndOrdered) {
  // Anon, traveller 7, anon, traveller 7 again: each anonymous trajectory
  // takes the next negative key, and a traveller's visits coalesce onto
  // their first-seen pairs.
  VisitCorpus corpus;
  corpus.AddTrajectory(-1, {10, 11});
  corpus.AddTrajectory(7, {11});
  corpus.AddTrajectory(-1, {12});
  corpus.AddTrajectory(7, {10, 11});

  using Visits = std::vector<std::pair<LandmarkId, double>>;
  ASSERT_EQ(corpus.num_travelers(), 3u);
  const std::vector<VisitCorpus::Record>& records = corpus.records();
  EXPECT_EQ(records[0].key, -1);
  EXPECT_EQ(records[0].visits, (Visits{{10, 1.0}, {11, 1.0}}));
  EXPECT_EQ(records[1].key, 7);
  EXPECT_EQ(records[1].visits, (Visits{{11, 2.0}, {10, 1.0}}));
  EXPECT_EQ(records[2].key, -2);
  EXPECT_EQ(records[2].visits, (Visits{{12, 1.0}}));
}

// --- Serial-vs-parallel equivalence on real corpora. ------------------------

void ExpectSameTransitions(
    const std::vector<PopularRouteMiner::Transition>& a,
    const std::vector<PopularRouteMiner::Transition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

class ParallelEquivalenceTest : public ::testing::Test {
 protected:
  ParallelEquivalenceTest() : world_(GetTestWorld()) {}

  const TestWorld& world_;
};

TEST_F(ParallelEquivalenceTest, TrainingIsIdenticalAcrossThreadCounts) {
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  for (uint64_t seed : {7u, 99u, 123u}) {
    std::vector<GeneratedTrip> trips = world_.generator->GenerateCorpus(
        /*count=*/120, /*num_travelers=*/15, /*num_days=*/7, seed);
    std::vector<RawTrajectory> corpus;
    for (const GeneratedTrip& t : trips) corpus.push_back(t.raw);
    // A probe trip the model has not trained on.
    Random rng(seed + 1);
    RawTrajectory probe;
    for (;;) {
      double start = world_.generator->SampleStartTimeOfDay(&rng);
      auto trip = world_.generator->GenerateTrip(start, &rng);
      if (trip.ok()) {
        probe = trip->raw;
        break;
      }
    }

    std::vector<PopularRouteMiner::Transition> ref_transitions;
    std::vector<double> ref_significance;
    std::string ref_summary;
    bool ref_ok = false;
    for (int threads : {1, 2, 4}) {
      STMakerOptions options;
      options.num_threads = threads;
      STMaker maker(&world_.city.network, &landmarks,
                    FeatureRegistry::BuiltIn(), options);
      ASSERT_TRUE(maker.Train(corpus).ok()) << "seed " << seed;

      std::vector<double> significance;
      for (const Landmark& lm : landmarks.landmarks()) {
        significance.push_back(lm.significance);
      }
      auto summary = maker.Summarize(probe);
      if (threads == 1) {
        ref_transitions = maker.popular_routes().Transitions();
        ref_significance = std::move(significance);
        ref_ok = summary.ok();
        ref_summary = summary.ok() ? summary->text : "";
        continue;
      }
      ExpectSameTransitions(maker.popular_routes().Transitions(),
                            ref_transitions);
      ASSERT_EQ(significance.size(), ref_significance.size());
      for (size_t i = 0; i < significance.size(); ++i) {
        EXPECT_DOUBLE_EQ(significance[i], ref_significance[i])
            << "seed " << seed << " threads " << threads << " landmark " << i;
      }
      ASSERT_EQ(summary.ok(), ref_ok) << "seed " << seed;
      if (ref_ok) {
        EXPECT_EQ(summary->text, ref_summary)
            << "seed " << seed << " threads " << threads;
      }
    }
  }
}

TEST_F(ParallelEquivalenceTest, SummarizeBatchMatchesSummarizeElementwise) {
  std::vector<RawTrajectory> batch;
  for (size_t i = 0; i < 30 && i < world_.history.size(); ++i) {
    batch.push_back(world_.history[i].raw);
  }
  // One item that fails calibration, to pin down per-item error fidelity.
  batch.push_back(RawTrajectory{});

  std::vector<Result<Summary>> serial;
  for (const RawTrajectory& raw : batch) {
    serial.push_back(world_.maker->Summarize(raw));
  }
  for (int threads : {1, 2, 4}) {
    std::vector<Result<Summary>> parallel =
        world_.maker->SummarizeBatch(batch, SummaryOptions(), threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(parallel[i].ok(), serial[i].ok())
          << "threads " << threads << " item " << i;
      if (serial[i].ok()) {
        EXPECT_EQ(parallel[i]->text, serial[i]->text)
            << "threads " << threads << " item " << i;
      } else {
        EXPECT_EQ(parallel[i].status().code(), serial[i].status().code());
      }
    }
  }
}

TEST_F(ParallelEquivalenceTest, ConcurrentSummarizeIsSafeAndDeterministic) {
  // Hammer the const serving path (and its shared caches) from several
  // threads at once; under TSan this is the data-race probe.
  std::vector<RawTrajectory> batch;
  for (size_t i = 0; i < 40 && i < world_.history.size(); ++i) {
    batch.push_back(world_.history[i].raw);
  }
  std::vector<Result<Summary>> expected;
  for (const RawTrajectory& raw : batch) {
    expected.push_back(world_.maker->Summarize(raw));
  }
  ThreadPool pool(4);
  std::vector<std::atomic<bool>> match(batch.size());
  for (auto& m : match) m.store(false);
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < batch.size(); ++i) {
      pool.Submit([&, i] {
        auto got = world_.maker->Summarize(batch[i]);
        bool ok = got.ok() == expected[i].ok() &&
                  (!got.ok() || got->text == expected[i]->text);
        match[i].store(ok);
      });
    }
    pool.Wait();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(match[i].load()) << "item " << i;
    }
  }
}

}  // namespace
}  // namespace stmaker
