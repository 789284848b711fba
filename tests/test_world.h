#ifndef STMAKER_TESTS_TEST_WORLD_H_
#define STMAKER_TESTS_TEST_WORLD_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/stmaker.h"
#include "landmark/poi_generator.h"
#include "roadnet/map_generator.h"
#include "traj/generator.h"

namespace stmaker::testing {

/// A fully built small world shared by integration-level tests: city map,
/// landmarks, trajectory generator, a historical corpus, and a trained
/// STMaker. Building it is deterministic; the singleton keeps test binaries
/// fast.
struct TestWorld {
  GeneratedMap city;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::unique_ptr<TrajectoryGenerator> generator;
  std::vector<GeneratedTrip> history;
  std::unique_ptr<STMaker> maker;
};

inline const TestWorld& GetTestWorld() {
  static const TestWorld& world = *[] {
    auto* w = new TestWorld();
    MapGeneratorOptions map_options;
    map_options.blocks_x = 14;
    map_options.blocks_y = 14;
    map_options.seed = 42;
    w->city = MapGenerator(map_options).Generate();

    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 250;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(w->city.network);
    w->landmarks = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(w->city.network, pois));

    w->generator = std::make_unique<TrajectoryGenerator>(&w->city.network,
                                                         w->landmarks.get());
    w->history = w->generator->GenerateCorpus(/*count=*/400,
                                              /*num_travelers=*/40,
                                              /*num_days=*/7, /*seed=*/99);

    w->maker = std::make_unique<STMaker>(&w->city.network, w->landmarks.get(),
                                         FeatureRegistry::BuiltIn());
    std::vector<RawTrajectory> raws;
    raws.reserve(w->history.size());
    for (const GeneratedTrip& t : w->history) raws.push_back(t.raw);
    Status trained = w->maker->Train(raws);
    STMAKER_CHECK(trained.ok());
    return w;
  }();
  return world;
}

/// Asserts two corpora are equal bit for bit (NaN payloads and signed
/// zeros included); `context` prefixes every failure message.
inline void ExpectSameCorpus(const std::vector<RawTrajectory>& got,
                             const std::vector<RawTrajectory>& want,
                             const std::string& context = "") {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t].traveler, want[t].traveler) << context << " trip " << t;
    ASSERT_EQ(got[t].samples.size(), want[t].samples.size())
        << context << " trip " << t;
    for (size_t i = 0; i < want[t].samples.size(); ++i) {
      const RawSample& a = got[t].samples[i];
      const RawSample& b = want[t].samples[i];
      ASSERT_EQ(std::bit_cast<uint64_t>(a.pos.x),
                std::bit_cast<uint64_t>(b.pos.x))
          << context << " trip " << t << " fix " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(a.pos.y),
                std::bit_cast<uint64_t>(b.pos.y))
          << context << " trip " << t << " fix " << i;
      ASSERT_EQ(std::bit_cast<uint64_t>(a.time),
                std::bit_cast<uint64_t>(b.time))
          << context << " trip " << t << " fix " << i;
    }
  }
}

}  // namespace stmaker::testing

#endif  // STMAKER_TESTS_TEST_WORLD_H_
