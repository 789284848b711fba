#include <gtest/gtest.h>
#include <sys/stat.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/model_manager.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "roadnet/shortest_path.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::LoadedModel;
using ::stmaker::testing::LoadModelFile;
using ::stmaker::testing::SaveAndLoad;
using ::stmaker::testing::TestWorld;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ModelIoTest : public ::testing::Test {
 protected:
  ModelIoTest() : world_(GetTestWorld()) {}

  const TestWorld& world_;
};

TEST_F(ModelIoTest, SaveRequiresTraining) {
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker fresh(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  EXPECT_EQ(
      fresh.SaveModelContainer(TempPath("untrained.stm"), world_.raws).code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(ModelIoTest, RoundTripReproducesSummariesExactly) {
  std::unique_ptr<LoadedModel> loaded =
      SaveAndLoad(*world_.maker, "model_roundtrip.stm");
  const STMaker& restored = *loaded->maker;
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.num_trained(), world_.maker->num_trained());
  EXPECT_EQ(restored.popular_routes().NumTransitions(),
            world_.maker->popular_routes().NumTransitions());
  EXPECT_EQ(restored.feature_map()->NumEdges(),
            world_.maker->feature_map()->NumEdges());

  // Train and the container load build the same model, bit for bit.
  const std::vector<PopularRouteMiner::Transition> trained_transitions =
      world_.maker->popular_routes().Transitions();
  const std::vector<PopularRouteMiner::Transition> loaded_transitions =
      restored.popular_routes().Transitions();
  ASSERT_EQ(loaded_transitions.size(), trained_transitions.size());
  for (size_t i = 0; i < trained_transitions.size(); ++i) {
    EXPECT_EQ(loaded_transitions[i].from, trained_transitions[i].from);
    EXPECT_EQ(loaded_transitions[i].to, trained_transitions[i].to);
    EXPECT_EQ(loaded_transitions[i].count, trained_transitions[i].count);
  }
  const std::vector<HistoricalFeatureMap::EdgeRecord> trained_edges =
      world_.maker->feature_map()->Edges();
  const std::vector<HistoricalFeatureMap::EdgeRecord> loaded_edges =
      restored.feature_map()->Edges();
  ASSERT_EQ(loaded_edges.size(), trained_edges.size());
  for (size_t i = 0; i < trained_edges.size(); ++i) {
    EXPECT_EQ(loaded_edges[i].from, trained_edges[i].from);
    EXPECT_EQ(loaded_edges[i].to, trained_edges[i].to);
    EXPECT_EQ(loaded_edges[i].count, trained_edges[i].count);
    EXPECT_EQ(loaded_edges[i].sums, trained_edges[i].sums);
  }
  for (size_t f = 0; f < restored.registry().size(); ++f) {
    EXPECT_EQ(restored.feature_map()->GlobalAverage(f),
              world_.maker->feature_map()->GlobalAverage(f))
        << "feature " << f;
  }
  ASSERT_EQ(restored.landmarks().size(), world_.maker->landmarks().size());
  for (size_t i = 0; i < restored.landmarks().size(); ++i) {
    const LandmarkId id = static_cast<LandmarkId>(i);
    EXPECT_EQ(restored.landmarks().landmark(id).significance,
              world_.maker->landmarks().landmark(id).significance)
        << "landmark " << i;
  }

  // Fresh trips summarize to byte-identical text through both makers.
  Random rng(99);
  int compared = 0;
  while (compared < 10) {
    double start = world_.generator->SampleStartTimeOfDay(&rng);
    auto trip = world_.generator->GenerateTrip(start, &rng);
    if (!trip.ok()) continue;
    auto original = world_.maker->Summarize(trip->raw);
    auto reloaded = restored.Summarize(trip->raw);
    ASSERT_EQ(original.ok(), reloaded.ok());
    if (!original.ok()) continue;
    EXPECT_EQ(original->text, reloaded->text);
    ASSERT_EQ(original->partitions.size(), reloaded->partitions.size());
    for (size_t p = 0; p < original->partitions.size(); ++p) {
      const auto& a = original->partitions[p];
      const auto& b = reloaded->partitions[p];
      ASSERT_EQ(a.irregular_rates.size(), b.irregular_rates.size());
      for (size_t f = 0; f < a.irregular_rates.size(); ++f) {
        EXPECT_NEAR(a.irregular_rates[f], b.irregular_rates[f], 1e-6);
      }
    }
    ++compared;
  }
}

TEST_F(ModelIoTest, LoadRejectsDifferentFeatureSet) {
  const std::string path = TempPath("model_featmismatch.stm");
  ASSERT_TRUE(world_.maker->SaveModelContainer(path, world_.raws).ok());
  Result<std::shared_ptr<MappedContainer>> container =
      MappedContainer::Open(path);
  ASSERT_TRUE(container.ok()) << container.status().ToString();

  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  FeatureDef extra;
  extra.id = "extra_feature";
  extra.display_name = "extra";
  extra.extractor = [](const SegmentContext&) { return 0.0; };
  ASSERT_TRUE(registry.Register(std::move(extra)).ok());

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker mismatched(&world_.city.network, &landmarks, std::move(registry));
  Status loaded = mismatched.LoadModelContainer(**container);
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(mismatched.trained());
}

TEST_F(ModelIoTest, LoadFromMissingFileIsIoError) {
  Result<std::unique_ptr<LoadedModel>> loaded =
      LoadModelFile("/nonexistent_zz/model.stm");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(ModelIoTest, HierarchyRoundTripsThroughModel) {
  // A saved model with a built hierarchy carries it (ch-rank/ch-arcs), so
  // a served model cold-starts on the fast backend without re-contracting.
  // Restored CH routes must equal plain Dijkstra. The hierarchy is built
  // on a container-loaded copy: the shared world's maker stays without.
  std::unique_ptr<LoadedModel> plain =
      SaveAndLoad(*world_.maker, "model_plain.stm");
  ASSERT_TRUE(plain->maker->BuildRoadHierarchy().ok());
  std::unique_ptr<LoadedModel> loaded =
      SaveAndLoad(*plain->maker, "model_with_ch.stm");
  const STMaker& restored = *loaded->maker;
  EXPECT_TRUE(restored.has_road_hierarchy());

  ShortestPathRouter reference(&world_.city.network);
  const NodeId n = static_cast<NodeId>(world_.city.network.NumNodes());
  for (NodeId src = 0; src < n; src += 97) {
    for (NodeId dst = 1; dst < n; dst += 89) {
      Result<Path> fast = restored.RoadRoute(src, dst);
      Result<Path> slow = reference.Route(src, dst);
      ASSERT_EQ(fast.ok(), slow.ok()) << src << "->" << dst;
      if (fast.ok()) {
        EXPECT_NEAR(fast->cost, slow->cost, 1e-6 * (1.0 + slow->cost))
            << src << "->" << dst;
      }
    }
  }
}

TEST_F(ModelIoTest, ModelWithoutHierarchyLoadsOnDijkstra) {
  // A model saved without contracting has no hierarchy sections; loading
  // it yields a working, Dijkstra-backed maker.
  ASSERT_FALSE(world_.maker->has_road_hierarchy());
  const std::string path = TempPath("model_no_ch.stm");
  ASSERT_TRUE(world_.maker->SaveModelContainer(path, world_.raws).ok());
  Result<std::unique_ptr<LoadedModel>> loaded = LoadModelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->container->Find(SectionType::kChRank), nullptr);
  EXPECT_EQ((*loaded)->container->Find(SectionType::kChArcs), nullptr);
  const STMaker& restored = *(*loaded)->maker;
  EXPECT_FALSE(restored.has_road_hierarchy());
  EXPECT_TRUE(restored.RoadRoute(0, 1).ok() ||
              restored.RoadRoute(0, 1).status().code() ==
                  StatusCode::kNotFound);
}

TEST_F(ModelIoTest, MinerSerializationHooks) {
  const std::vector<PopularRouteMiner::Transition> history = {
      {1, 2, 1.0}, {2, 3, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}};
  PopularRouteMiner miner(history);
  std::vector<PopularRouteMiner::Transition> transitions =
      miner.Transitions();
  ASSERT_EQ(transitions.size(), 2u);

  PopularRouteMiner rebuilt(transitions);
  ASSERT_EQ(rebuilt.Transitions().size(), 2u);
  for (const PopularRouteMiner::Transition& t : rebuilt.Transitions()) {
    EXPECT_DOUBLE_EQ(t.count, 2.0);
  }
  auto route = rebuilt.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST_F(ModelIoTest, FeatureMapSerializationHooks) {
  const std::vector<HistoricalFeatureMap::EdgeRecord> segments = {
      {1, 2, {10, 1}, 1}, {1, 2, {20, 3}, 1}, {4, 5, {6, 0}, 1}};
  HistoricalFeatureMap map(2, segments);
  std::vector<HistoricalFeatureMap::EdgeRecord> edges = map.Edges();
  ASSERT_EQ(edges.size(), 2u);

  HistoricalFeatureMap rebuilt(2, edges);
  HistoricalFeatureMap::Row avg = rebuilt.Lookup(1, 2);
  EXPECT_DOUBLE_EQ(avg[0], 15.0);
  EXPECT_DOUBLE_EQ(avg[1], 2.0);
  EXPECT_DOUBLE_EQ(rebuilt.GlobalAverage(0), map.GlobalAverage(0));
}

/// Model containers for the ModelManager cases, saved once from the shared
/// trained maker: <dir>/model.stm and <dir>/second.stm (with a routing
/// hierarchy) and <dir>/noch.stm (the same model without one).
const std::string& GetManagerModelDir() {
  static const std::string& dir = *[] {
    const TestWorld& world = GetTestWorld();
    auto* d = new std::string(::testing::TempDir() + "/manager_models");
    ::mkdir(d->c_str(), 0755);  // EEXIST from a previous run is fine
    STMAKER_CHECK(
        world.maker->SaveModelContainer(*d + "/noch.stm", world.raws).ok());
    // Contract a container-loaded copy: the shared world's maker stays
    // without a hierarchy.
    Result<std::unique_ptr<LoadedModel>> copy = LoadModelFile(*d + "/noch.stm");
    STMAKER_CHECK(copy.ok());
    STMaker& maker = *(*copy)->maker;
    STMAKER_CHECK(maker.BuildRoadHierarchy().ok());
    STMAKER_CHECK(maker.SaveModelContainer(*d + "/model.stm", world.raws).ok());
    STMAKER_CHECK(
        maker.SaveModelContainer(*d + "/second.stm", world.raws).ok());
    return d;
  }();
  return dir;
}

TEST_F(ModelIoTest, ManagerReloadRollsBackWhenCandidateLosesHierarchy) {
  // A reload candidate without a routing hierarchy loads fine as a
  // *model* (the hierarchy is advisory) — but the manager's
  // hierarchy-regression policy must refuse to swap it in: the serving
  // snapshot still routes via CH, and silently downgrading to Dijkstra is
  // exactly the kind of half-upgrade the snapshot design exists to prevent.
  const std::string& dir = GetManagerModelDir();

  ModelManagerOptions opts;
  opts.model_prefix = dir + "/model.stm";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  // The metrics registry is process-global, so read deltas, not absolutes.
  const uint64_t base_ok = manager.reloads_ok();
  const uint64_t base_failures = manager.reload_failures();
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->maker->has_road_hierarchy());

  Status reload = manager.Reload(dir + "/noch.stm");
  EXPECT_EQ(reload.code(), StatusCode::kFailedPrecondition)
      << reload.ToString();
  EXPECT_EQ(manager.reload_failures(), base_failures + 1);
  EXPECT_EQ(manager.reloads_ok(), base_ok);

  // Rollback means the *same* snapshot object keeps serving — not a
  // re-load of the old path — so pinned requests and Current() agree.
  std::shared_ptr<const ModelSnapshot> after = manager.Current();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_TRUE(after->maker->has_road_hierarchy());

  // The failed attempt consumed a version number but never published it;
  // the next good reload publishes a strictly newer version.
  ASSERT_TRUE(manager.Reload(dir + "/model.stm").ok());
  EXPECT_EQ(manager.Current()->version, before->version + 2);
  EXPECT_EQ(manager.reloads_ok(), base_ok + 1);
}

TEST_F(ModelIoTest, ManagerServingWithoutHierarchyReloadsOntoDijkstra) {
  // The hierarchy-regression policy refuses only a swap of a hierarchy
  // for none. A container without one serves on Dijkstra, is never
  // contracted at load, and reloads in place like any other model.
  const std::string& dir = GetManagerModelDir();

  ModelManagerOptions opts;
  opts.model_prefix = dir + "/noch.stm";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const uint64_t base_ok = manager.reloads_ok();
  const uint64_t base_failures = manager.reload_failures();
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  EXPECT_FALSE(before->maker->has_road_hierarchy());

  ASSERT_TRUE(manager.Reload().ok());
  std::shared_ptr<const ModelSnapshot> after = manager.Current();
  EXPECT_EQ(after->version, before->version + 1);
  EXPECT_EQ(after->model_prefix, dir + "/noch.stm");
  EXPECT_FALSE(after->maker->has_road_hierarchy());
  EXPECT_EQ(manager.reloads_ok(), base_ok + 1);
  EXPECT_EQ(manager.reload_failures(), base_failures);

  ShortestPathRouter reference(&world_.city.network);
  const NodeId n = static_cast<NodeId>(world_.city.network.NumNodes());
  for (NodeId src = 0; src < n; src += 131) {
    for (NodeId dst = 3; dst < n; dst += 113) {
      Result<Path> served = after->maker->RoadRoute(src, dst);
      Result<Path> slow = reference.Route(src, dst);
      ASSERT_EQ(served.ok(), slow.ok()) << src << "->" << dst;
      if (served.ok()) {
        EXPECT_EQ(served->cost, slow->cost) << src << "->" << dst;
      }
    }
  }

  // Gaining a hierarchy is no regression either.
  ASSERT_TRUE(manager.Reload(dir + "/model.stm").ok());
  EXPECT_TRUE(manager.Current()->maker->has_road_hierarchy());
}

TEST_F(ModelIoTest, ManagerBackToBackReloadsAreSerializedFifo) {
  // Two RequestReload calls racing each other must never interleave: the
  // single reloader thread drains the queue FIFO, callbacks fire in
  // submission order with strictly increasing published versions, and the
  // final serving state is the *last* request's model.
  const std::string& dir = GetManagerModelDir();

  ModelManagerOptions opts;
  opts.model_prefix = dir + "/model.stm";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const uint64_t v0 = manager.Current()->version;

  std::mutex mu;
  std::vector<std::pair<int, uint64_t>> done;  // (submission tag, version)
  manager.RequestReload(dir + "/second.stm", [&](const Status& s, uint64_t v) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(1, v);
  });
  manager.RequestReload(dir + "/model.stm", [&](const Status& s, uint64_t v) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(2, v);
  });
  manager.WaitIdle();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, 1);
  EXPECT_EQ(done[1].first, 2);
  EXPECT_EQ(done[0].second, v0 + 1);
  EXPECT_EQ(done[1].second, v0 + 2);
  std::shared_ptr<const ModelSnapshot> final_snapshot = manager.Current();
  EXPECT_EQ(final_snapshot->version, v0 + 2);
  EXPECT_EQ(final_snapshot->model_prefix, dir + "/model.stm");
  EXPECT_TRUE(final_snapshot->maker->has_road_hierarchy());
}

TEST_F(ModelIoTest, ReloadCallbackRunsBeforeTheDisplacedSnapshotIsFreed) {
  // With no request pinning the old snapshot, the swap leaves the manager
  // holding its last reference. Its teardown must happen after the reply
  // (and outside the lock Current() takes), so the callback still sees it
  // alive — and once the reloader is idle it is gone.
  const std::string& dir = GetManagerModelDir();

  ModelManagerOptions opts;
  opts.model_prefix = dir + "/model.stm";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const std::weak_ptr<const ModelSnapshot> displaced = manager.Current();

  Status outcome = Status::Internal("callback never ran");
  bool alive_in_callback = false;
  manager.RequestReload(dir + "/second.stm", [&](const Status& s, uint64_t) {
    outcome = s;
    alive_in_callback = !displaced.expired();
  });
  manager.WaitIdle();

  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_TRUE(alive_in_callback);
  EXPECT_TRUE(displaced.expired());
}

TEST_F(ModelIoTest, ManagerShutdownAnswersEveryQueuedReloadOnce) {
  // Destroying the manager finishes the reload in progress and runs no
  // other: the reloads still queued fail with kCancelled. Either way every
  // callback fires exactly once, so no admin caller waits forever.
  const std::string& dir = GetManagerModelDir();

  ModelManagerOptions opts;
  opts.model_prefix = dir + "/model.stm";
  auto manager = std::make_unique<ModelManager>(opts);
  ASSERT_TRUE(manager->Initialize().ok());
  const uint64_t v0 = manager->Current()->version;

  struct Outcome {
    int calls = 0;
    StatusCode code = StatusCode::kInternal;
    uint64_t version = 0;
  };
  constexpr size_t kReloads = ModelManager::kMaxQueuedReloads;
  std::mutex mu;
  std::condition_variable answered;
  std::vector<Outcome> outcomes(kReloads);
  for (size_t i = 0; i < kReloads; ++i) {
    manager->RequestReload(
        dir + (i % 2 == 0 ? "/second.stm" : "/model.stm"),
        [&, i](const Status& s, uint64_t version) {
          std::lock_guard<std::mutex> lock(mu);
          ++outcomes[i].calls;
          outcomes[i].code = s.code();
          outcomes[i].version = version;
          answered.notify_all();
        });
  }
  // Shut down mid-queue: once the first reload has answered, the others
  // are running or still queued.
  {
    std::unique_lock<std::mutex> lock(mu);
    answered.wait(lock, [&] { return outcomes[0].calls > 0; });
  }
  manager.reset();

  // FIFO: the reloads that ran are a prefix, each publishing the next
  // version; every later one was cancelled and reports the version that
  // was serving at shutdown.
  std::lock_guard<std::mutex> lock(mu);
  size_t ran = 0;
  while (ran < kReloads && outcomes[ran].code == StatusCode::kOk) ++ran;
  EXPECT_GE(ran, 1u);
  for (size_t i = 0; i < kReloads; ++i) {
    EXPECT_EQ(outcomes[i].calls, 1) << "reload " << i;
    if (i < ran) {
      EXPECT_EQ(outcomes[i].version, v0 + 1 + i) << "reload " << i;
    } else {
      EXPECT_EQ(outcomes[i].code, StatusCode::kCancelled) << "reload " << i;
      EXPECT_EQ(outcomes[i].version, v0 + ran) << "reload " << i;
    }
  }
}

}  // namespace
}  // namespace stmaker
