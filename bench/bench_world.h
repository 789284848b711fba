#ifndef STMAKER_BENCH_BENCH_WORLD_H_
#define STMAKER_BENCH_BENCH_WORLD_H_

// Shared setup for the evaluation harness (Sec. VII): a city-scale synthetic
// world, a historical training corpus, and a trained STMaker. Every bench
// binary reproduces one table/figure of the paper; they share this fixture
// so their numbers come from the same "Beijing".
//
// Scale note: the paper trains on 50k taxi trajectories over a commercial
// map with ~49k landmarks. The bench world is a scaled-down city (default
// 3,000 training trips, ~1,100 landmarks) that preserves the relevant
// distributions — the experiments report shapes (who wins, where the
// crossovers are), not absolute magnitudes.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/stmaker.h"
#include "landmark/poi_generator.h"
#include "roadnet/map_generator.h"
#include "traj/generator.h"

namespace stmaker::bench {

struct BenchWorldOptions {
  int blocks = 20;
  int poi_sites = 500;
  size_t history_size = 3000;
  int num_travelers = 200;
  int num_days = 30;
  uint64_t seed = 20150401;  // ICDE'15 week
};

struct BenchWorld {
  GeneratedMap city;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::unique_ptr<TrajectoryGenerator> generator;
  std::vector<GeneratedTrip> history;
  std::unique_ptr<STMaker> maker;
};

inline BenchWorld BuildBenchWorld(
    const BenchWorldOptions& options = BenchWorldOptions()) {
  BenchWorld world;
  MapGeneratorOptions map_options;
  map_options.blocks_x = options.blocks;
  map_options.blocks_y = options.blocks;
  map_options.seed = options.seed;
  world.city = MapGenerator(map_options).Generate();

  PoiGeneratorOptions poi_options;
  poi_options.num_sites = options.poi_sites;
  poi_options.seed = options.seed + 1;
  std::vector<RawPoi> pois =
      PoiGenerator(poi_options).Generate(world.city.network);
  world.landmarks = std::make_unique<LandmarkIndex>(
      LandmarkIndex::Build(world.city.network, pois));

  world.generator = std::make_unique<TrajectoryGenerator>(
      &world.city.network, world.landmarks.get());
  world.history = world.generator->GenerateCorpus(
      options.history_size, options.num_travelers, options.num_days,
      options.seed + 2);

  world.maker = std::make_unique<STMaker>(
      &world.city.network, world.landmarks.get(), FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> raws;
  raws.reserve(world.history.size());
  for (const GeneratedTrip& t : world.history) raws.push_back(t.raw);
  Status trained = world.maker->Train(raws);
  STMAKER_CHECK(trained.ok());

  std::printf(
      "# bench world: %zu nodes, %zu edges, %zu landmarks, trained on %zu "
      "trips\n",
      world.city.network.NumNodes(), world.city.network.NumEdges(),
      world.landmarks->size(), world.maker->num_trained());
  return world;
}

/// Shape checks that printed VIOLATED so far in this process.
inline int violated_checks = 0;

/// The verdict a shape check prints: `pass` when the paper's claim holds,
/// "VIOLATED" (counted) when it does not.
inline const char* Verdict(bool holds, const char* pass = "OK") {
  if (!holds) ++violated_checks;
  return holds ? pass : "VIOLATED";
}

/// main's exit status: 1 when any shape check was violated, so ctest
/// fails when a paper claim stops holding.
inline int ShapeCheckExitCode() { return violated_checks == 0 ? 0 : 1; }

/// Short labels matching the paper's figures.
inline const char* FeatureLabel(size_t f) {
  static const char* kLabels[] = {"GR", "RW", "TD", "Spe", "Stay", "U-turn"};
  return f < 6 ? kLabels[f] : "custom";
}

}  // namespace stmaker::bench

#endif  // STMAKER_BENCH_BENCH_WORLD_H_
