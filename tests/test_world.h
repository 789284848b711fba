#ifndef STMAKER_TESTS_TEST_WORLD_H_
#define STMAKER_TESTS_TEST_WORLD_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "core/stmaker.h"
#include "io/container.h"
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
  std::vector<RawTrajectory> raws;  ///< history[i].raw: the training corpus.
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
    w->raws.reserve(w->history.size());
    for (const GeneratedTrip& t : w->history) w->raws.push_back(t.raw);
    Status trained = w->maker->Train(w->raws);
    STMAKER_CHECK(trained.ok());
    return w;
  }();
  return world;
}

/// A model restored from a container the way a serving snapshot holds
/// one: the mapping first, so it outlives the network views that alias it.
/// Heap-allocated because the maker keeps raw pointers into the bundle.
struct LoadedModel {
  std::shared_ptr<MappedContainer> container;
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::vector<RawTrajectory> corpus;
  std::unique_ptr<STMaker> maker;
};

/// Opens the container at `path` and restores its world, serving corpus,
/// and model — the load sequence of a ModelManager snapshot.
inline Result<std::unique_ptr<LoadedModel>> LoadModelFile(
    const std::string& path, int threads = 1) {
  auto m = std::make_unique<LoadedModel>();
  STMAKER_ASSIGN_OR_RETURN(m->container, MappedContainer::Open(path));
  STMAKER_ASSIGN_OR_RETURN(m->network,
                           LoadNetworkFromContainer(*m->container));
  STMAKER_ASSIGN_OR_RETURN(
      LandmarkIndex landmarks,
      LoadLandmarksFromContainer(*m->container, m->network));
  m->landmarks = std::make_unique<LandmarkIndex>(std::move(landmarks));
  STMAKER_ASSIGN_OR_RETURN(m->corpus,
                           LoadTrajectoriesFromContainer(*m->container));
  STMakerOptions options;
  options.num_threads = threads;
  m->maker = std::make_unique<STMaker>(&m->network, m->landmarks.get(),
                                       FeatureRegistry::BuiltIn(), options);
  STMAKER_RETURN_IF_ERROR(m->maker->LoadModelContainer(*m->container));
  return m;
}

/// Saves `maker` with the shared world's corpus to `<TempDir>/<name>` and
/// loads it back: the same trained state with stone-cold caches.
inline std::unique_ptr<LoadedModel> SaveAndLoad(const STMaker& maker,
                                                const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  STMAKER_CHECK(maker.SaveModelContainer(path, GetTestWorld().raws).ok());
  Result<std::unique_ptr<LoadedModel>> loaded = LoadModelFile(path);
  STMAKER_CHECK(loaded.ok());
  return std::move(loaded).value();
}

/// The header of a container file image.
inline ContainerHeader HeaderOf(const std::string& bytes) {
  ContainerHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

/// The section table of a container file image.
inline std::vector<SectionEntry> TableOf(const std::string& bytes) {
  const ContainerHeader header = HeaderOf(bytes);
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(ContainerHeader),
              table.size() * sizeof(SectionEntry));
  return table;
}

/// Flips one payload byte of the first section of `type`. The section CRC
/// in the table is left as-is: that is the torn-write / bit-rot scenario
/// the per-section CRCs exist to catch.
inline void FlipPayloadByte(std::string* bytes, SectionType type) {
  for (const SectionEntry& entry : TableOf(*bytes)) {
    if (entry.type == static_cast<uint32_t>(type)) {
      ASSERT_GT(entry.bytes, 0u);
      (*bytes)[entry.offset + entry.bytes / 2] ^= 0x40;
      return;
    }
  }
  FAIL() << "container has no section of type " << static_cast<int>(type);
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
