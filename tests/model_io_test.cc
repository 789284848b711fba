#include <gtest/gtest.h>
#include <sys/stat.h>

#include <mutex>
#include <utility>
#include <vector>

#include "common/fileutil.h"
#include "core/model_manager.h"
#include "core/stmaker.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"
#include "landmark/poi_generator.h"
#include "roadnet/shortest_path.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

std::string TempPrefix(const std::string& name) {
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
  EXPECT_EQ(fresh.SaveModel(TempPrefix("untrained")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ModelIoTest, RoundTripReproducesSummariesExactly) {
  std::string prefix = TempPrefix("model_roundtrip");
  ASSERT_TRUE(world_.maker->SaveModel(prefix).ok());

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker restored(&world_.city.network, &landmarks,
                   FeatureRegistry::BuiltIn());
  ASSERT_FALSE(restored.trained());
  Status loaded = restored.LoadModel(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.num_trained(), world_.maker->num_trained());
  EXPECT_EQ(restored.popular_routes().NumTransitions(),
            world_.maker->popular_routes().NumTransitions());
  EXPECT_EQ(restored.feature_map()->NumEdges(),
            world_.maker->feature_map()->NumEdges());

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

TEST_F(ModelIoTest, VisitCorpusRoundTripsAndSignificanceRecomputes) {
  // Save -> load -> TrainIncremental({}) recomputes significance from the
  // restored corpus; the scores must match what training installed, which
  // pins down that _visits.csv round-trips the corpus faithfully.
  std::string prefix = TempPrefix("model_visits");
  ASSERT_TRUE(world_.maker->SaveModel(prefix).ok());

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  std::vector<double> trained_scores;
  for (const Landmark& lm : landmarks.landmarks()) {
    trained_scores.push_back(lm.significance);
  }

  STMaker restored(&world_.city.network, &landmarks,
                   FeatureRegistry::BuiltIn());
  ASSERT_TRUE(restored.LoadModel(prefix).ok());
  ASSERT_TRUE(restored.TrainIncremental({}).ok());
  // The baseline may itself have passed through a %.9g save/load in an
  // earlier test (the index is shared), so compare at that precision.
  for (size_t i = 0; i < trained_scores.size(); ++i) {
    EXPECT_NEAR(landmarks.landmark(static_cast<LandmarkId>(i)).significance,
                trained_scores[i], 1e-8);
  }
}

TEST_F(ModelIoTest, LoadRejectsDifferentFeatureSet) {
  std::string prefix = TempPrefix("model_featmismatch");
  ASSERT_TRUE(world_.maker->SaveModel(prefix).ok());

  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  FeatureDef extra;
  extra.id = "extra_feature";
  extra.display_name = "extra";
  extra.extractor = [](const SegmentContext&) { return 0.0; };
  ASSERT_TRUE(registry.Register(std::move(extra)).ok());

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker mismatched(&world_.city.network, &landmarks, std::move(registry));
  Status loaded = mismatched.LoadModel(prefix);
  EXPECT_EQ(loaded.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(mismatched.trained());
}

TEST_F(ModelIoTest, LoadFromMissingFilesFails) {
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker fresh(&world_.city.network, &landmarks,
                FeatureRegistry::BuiltIn());
  Status loaded = fresh.LoadModel("/nonexistent_zz/model");
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(fresh.trained());
}

TEST_F(ModelIoTest, HierarchyRoundTripsThroughModel) {
  // SaveModel with a built hierarchy ships it as model_ch.csv; LoadModel
  // restores it so a served model cold-starts on the fast backend without
  // re-contracting. Restored CH routes must equal plain Dijkstra.
  std::string prefix = TempPrefix("model_with_ch");
  ASSERT_TRUE(world_.maker->BuildRoadHierarchy().ok());
  ASSERT_TRUE(world_.maker->SaveModel(prefix).ok());
  world_.maker->DropRoadHierarchy();  // the world is shared; leave it as found

  Result<std::string> saved = ReadFileToString(prefix + "_ch.csv");
  ASSERT_TRUE(saved.ok()) << "model save did not write the hierarchy file";

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker restored(&world_.city.network, &landmarks,
                   FeatureRegistry::BuiltIn());
  Status loaded = restored.LoadModel(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
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

TEST_F(ModelIoTest, CorruptedHierarchyFallsBackToDijkstraNotFailure) {
  // The hierarchy file is an optional accelerator: damage to it must not
  // take the model down. LoadModel succeeds, serves summaries, and routes
  // via Dijkstra — has_road_hierarchy() just reports false.
  std::string prefix = TempPrefix("model_bad_ch");
  ASSERT_TRUE(world_.maker->BuildRoadHierarchy().ok());
  ASSERT_TRUE(world_.maker->SaveModel(prefix).ok());
  world_.maker->DropRoadHierarchy();

  Result<std::string> content = ReadFileToString(prefix + "_ch.csv");
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(WriteFileToPath(prefix + "_ch.csv", *content + "x").ok());

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker restored(&world_.city.network, &landmarks,
                   FeatureRegistry::BuiltIn());
  Status loaded = restored.LoadModel(prefix);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_FALSE(restored.has_road_hierarchy());
  EXPECT_TRUE(restored.trained());

  // Routing still answers (slow path), and summaries still serve.
  Result<Path> route = restored.RoadRoute(0, 1);
  ShortestPathRouter reference(&world_.city.network);
  Result<Path> expected = reference.Route(0, 1);
  ASSERT_EQ(route.ok(), expected.ok());
  if (route.ok()) {
    EXPECT_DOUBLE_EQ(route->cost, expected->cost);
  }
  Result<Summary> summary = restored.Summarize(world_.history[0].raw);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
}

TEST_F(ModelIoTest, MissingHierarchyFileIsNotAnError) {
  // A model written by an older build (or with --router dijkstra) simply
  // has no _ch.csv; loading it yields a working, Dijkstra-backed maker.
  std::string prefix = TempPrefix("model_no_ch");
  ASSERT_FALSE(world_.maker->has_road_hierarchy());
  ASSERT_TRUE(world_.maker->SaveModel(prefix).ok());
  EXPECT_FALSE(FileExists(prefix + "_ch.csv"));

  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
  STMaker restored(&world_.city.network, &landmarks,
                   FeatureRegistry::BuiltIn());
  ASSERT_TRUE(restored.LoadModel(prefix).ok());
  EXPECT_FALSE(restored.has_road_hierarchy());
  EXPECT_TRUE(restored.RoadRoute(0, 1).ok() ||
              restored.RoadRoute(0, 1).status().code() ==
                  StatusCode::kNotFound);
}

TEST_F(ModelIoTest, MinerSerializationHooks) {
  PopularRouteMiner miner;
  SymbolicTrajectory t;
  t.samples = {{1, 0.0}, {2, 60.0}, {3, 120.0}};
  miner.AddTrajectory(t);
  miner.AddTrajectory(t);
  std::vector<PopularRouteMiner::Transition> transitions =
      miner.Transitions();
  ASSERT_EQ(transitions.size(), 2u);

  PopularRouteMiner rebuilt;
  for (const auto& tr : transitions) {
    rebuilt.AddTransitionCount(tr.from, tr.to, tr.count);
  }
  EXPECT_DOUBLE_EQ(rebuilt.TransitionCount(1, 2), 2.0);
  EXPECT_DOUBLE_EQ(rebuilt.TransitionCount(2, 3), 2.0);
  auto route = rebuilt.PopularRoute(1, 3);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(*route, (std::vector<LandmarkId>{1, 2, 3}));
}

TEST_F(ModelIoTest, FeatureMapSerializationHooks) {
  HistoricalFeatureMap map(2);
  map.AddSegment(1, 2, {10, 1});
  map.AddSegment(1, 2, {20, 3});
  map.AddSegment(4, 5, {6, 0});
  std::vector<HistoricalFeatureMap::EdgeRecord> edges = map.Edges();
  ASSERT_EQ(edges.size(), 2u);

  HistoricalFeatureMap rebuilt(2);
  for (const auto& e : edges) {
    rebuilt.AddAccumulated(e.from, e.to, e.sums, e.count);
  }
  auto avg = rebuilt.RegularValuesCopy(1, 2);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ((*avg)[0], 15.0);
  EXPECT_DOUBLE_EQ((*avg)[1], 2.0);
  EXPECT_DOUBLE_EQ(rebuilt.GlobalAverage(0), map.GlobalAverage(0));
}

/// Builds (once) a ModelManager data_dir — the same network/POIs/corpus
/// layout `stmaker_cli gen` produces — plus models trained the way
/// `stmaker_cli train` does: on the world read *back from CSV*, so the
/// saved hierarchy agrees with the network the manager will load (the CSV
/// round trip quantizes coordinates; a hierarchy built on the in-memory
/// originals fails weight validation against the reloaded network).
/// Contains: <dir>/model and <dir>/second (good, with hierarchy) and
/// <dir>/noch (valid manifest, _ch.csv truncated in half).
const std::string& GetManagerWorldDir() {
  static const std::string& dir = *[] {
    const TestWorld& world = GetTestWorld();
    auto* d = new std::string(::testing::TempDir() + "/manager_world");
    ::mkdir(d->c_str(), 0755);  // EEXIST from a previous run is fine
    STMAKER_CHECK(WriteRoadNetworkCsv(*d + "/network", world.city.network).ok());
    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 250;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(world.city.network);
    STMAKER_CHECK(WritePoisCsv(*d + "/pois.csv", pois).ok());
    std::vector<RawTrajectory> raws;
    raws.reserve(world.history.size());
    for (const auto& trip : world.history) raws.push_back(trip.raw);
    STMAKER_CHECK(WriteTrajectoriesCsv(*d + "/trajectories.csv", raws).ok());

    Result<RoadNetwork> network = ReadRoadNetworkCsv(*d + "/network");
    STMAKER_CHECK(network.ok());
    Result<std::vector<RawPoi>> loaded_pois = ReadPoisCsv(*d + "/pois.csv");
    STMAKER_CHECK(loaded_pois.ok());
    auto* loaded_network = new RoadNetwork(std::move(*network));
    auto* index = new LandmarkIndex(
        LandmarkIndex::Build(*loaded_network, *loaded_pois));
    STMaker maker(loaded_network, index, FeatureRegistry::BuiltIn());
    STMAKER_CHECK(maker.Train(raws).ok());
    STMAKER_CHECK(maker.BuildRoadHierarchy().ok());
    STMAKER_CHECK(maker.SaveModel(*d + "/model").ok());
    STMAKER_CHECK(maker.SaveModel(*d + "/second").ok());
    STMAKER_CHECK(maker.SaveModel(*d + "/noch").ok());
    Result<std::string> ch = ReadFileToString(*d + "/noch_ch.csv");
    STMAKER_CHECK(ch.ok());
    STMAKER_CHECK(
        WriteFileToPath(*d + "/noch_ch.csv", ch->substr(0, ch->size() / 2))
            .ok());
    return d;
  }();
  return dir;
}

TEST_F(ModelIoTest, ManagerReloadRollsBackWhenCandidateLosesHierarchy) {
  // A reload candidate with a valid manifest but a truncated _ch.csv loads
  // fine as a *model* (the hierarchy is advisory) — but the manager's
  // hierarchy-regression policy must refuse to swap it in: the serving
  // snapshot still routes via CH, and silently downgrading to Dijkstra is
  // exactly the kind of half-upgrade the snapshot design exists to prevent.
  const std::string& dir = GetManagerWorldDir();

  ModelManagerOptions opts;
  opts.data_dir = dir;
  opts.model_prefix = dir + "/model";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  // The metrics registry is process-global, so read deltas, not absolutes.
  const uint64_t base_ok = manager.reloads_ok();
  const uint64_t base_failures = manager.reload_failures();
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->maker->has_road_hierarchy());

  Status reload = manager.Reload(dir + "/noch");
  EXPECT_EQ(reload.code(), StatusCode::kFailedPrecondition)
      << reload.ToString();
  EXPECT_EQ(manager.reload_failures(), base_failures + 1);
  EXPECT_EQ(manager.reloads_ok(), base_ok);

  // Rollback means the *same* snapshot object keeps serving — not a
  // re-load of the old prefix — so pinned requests and Current() agree.
  std::shared_ptr<const ModelSnapshot> after = manager.Current();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_TRUE(after->maker->has_road_hierarchy());

  // The failed attempt consumed a version number but never published it;
  // the next good reload publishes a strictly newer version.
  ASSERT_TRUE(manager.Reload(dir + "/model").ok());
  EXPECT_EQ(manager.Current()->version, before->version + 2);
  EXPECT_EQ(manager.reloads_ok(), base_ok + 1);
}

TEST_F(ModelIoTest, ManagerBackToBackReloadsAreSerializedFifo) {
  // Two RequestReload calls racing each other must never interleave: the
  // single reloader thread drains the queue FIFO, callbacks fire in
  // submission order with strictly increasing published versions, and the
  // final serving state is the *last* request's model.
  const std::string& dir = GetManagerWorldDir();

  ModelManagerOptions opts;
  opts.data_dir = dir;
  opts.model_prefix = dir + "/model";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const uint64_t v0 = manager.Current()->version;

  std::mutex mu;
  std::vector<std::pair<int, uint64_t>> done;  // (submission tag, version)
  manager.RequestReload(dir + "/second", [&](const Status& s, uint64_t v) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::lock_guard<std::mutex> lock(mu);
    done.emplace_back(1, v);
  });
  manager.RequestReload(dir + "/model", [&](const Status& s, uint64_t v) {
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
  EXPECT_EQ(final_snapshot->model_prefix, dir + "/model");
  EXPECT_TRUE(final_snapshot->maker->has_road_hierarchy());
}

TEST_F(ModelIoTest, ReloadCallbackRunsBeforeTheDisplacedSnapshotIsFreed) {
  // With no request pinning the old snapshot, the swap leaves the manager
  // holding its last reference. Its teardown must happen after the reply
  // (and outside the lock Current() takes), so the callback still sees it
  // alive — and once the reloader is idle it is gone.
  const std::string& dir = GetManagerWorldDir();

  ModelManagerOptions opts;
  opts.data_dir = dir;
  opts.model_prefix = dir + "/model";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const std::weak_ptr<const ModelSnapshot> displaced = manager.Current();

  Status outcome = Status::Internal("callback never ran");
  bool alive_in_callback = false;
  manager.RequestReload(dir + "/second", [&](const Status& s, uint64_t) {
    outcome = s;
    alive_in_callback = !displaced.expired();
  });
  manager.WaitIdle();

  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  EXPECT_TRUE(alive_in_callback);
  EXPECT_TRUE(displaced.expired());
}

}  // namespace
}  // namespace stmaker
