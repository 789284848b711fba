// Binary model container (src/io/container.h, docs/FORMAT.md): structural
// validation on Open, CRC-gated section loads, the required-vs-advisory
// damage policy, the mmap-failure heap fallback, byte-exact round trips,
// and the ModelManager rollback guarantee when a reload candidate is a
// damaged container.
//
// The corruption tests all work the same way: take the known-good file
// image, flip or patch specific bytes (re-sealing the header CRC when the
// corruption is *supposed* to get past the structural check), write the
// mutant to its own temp path, and assert the precise failure mode.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/metrics.h"
#include "core/model_manager.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"
#include "landmark/poi_generator.h"
#include "test_world.h"

namespace stmaker {
namespace {

using ::stmaker::testing::ExpectSameCorpus;
using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- byte-surgery helpers ---------------------------------------------------

ContainerHeader HeaderOf(const std::string& bytes) {
  ContainerHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

std::vector<SectionEntry> TableOf(const std::string& bytes) {
  const ContainerHeader header = HeaderOf(bytes);
  std::vector<SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(ContainerHeader),
              table.size() * sizeof(SectionEntry));
  return table;
}

/// Re-seals the header CRC after a deliberate header/table patch, so the
/// mutation under test (and only it) is what the reader trips over.
void ResealHeaderCrc(std::string* bytes) {
  ContainerHeader header = HeaderOf(*bytes);
  header.header_crc32 = 0;
  uint32_t crc =
      Crc32(std::string_view(reinterpret_cast<const char*>(&header),
                             sizeof(header)));
  crc = Crc32(std::string_view(
                  bytes->data() + sizeof(ContainerHeader),
                  header.section_count * sizeof(SectionEntry)),
              crc);
  std::memcpy(bytes->data() + offsetof(ContainerHeader, header_crc32), &crc,
              sizeof(crc));
}

/// Flips one payload byte of the first section of `type`. The section CRC
/// in the table is left as-is: that is the torn-write / bit-rot scenario
/// the per-section CRCs exist to catch.
void FlipPayloadByte(std::string* bytes, SectionType type) {
  for (const SectionEntry& entry : TableOf(*bytes)) {
    if (entry.type == static_cast<uint32_t>(type)) {
      ASSERT_GT(entry.bytes, 0u);
      (*bytes)[entry.offset + entry.bytes / 2] ^= 0x40;
      return;
    }
  }
  FAIL() << "container has no section of type " << static_cast<int>(type);
}

/// The table entry of the first section of `type` (the caller asserts one
/// exists).
SectionEntry EntryOf(const std::string& bytes, SectionType type) {
  for (const SectionEntry& entry : TableOf(bytes)) {
    if (entry.type == static_cast<uint32_t>(type)) return entry;
  }
  ADD_FAILURE() << "container has no section of type "
                << static_cast<int>(type);
  return SectionEntry{};
}

/// Overwrites record `index` of the `type` section with `record`, then
/// recomputes the section CRC and re-seals the header: the
/// hostile-but-checksummed file that only the semantic validation can
/// catch.
template <typename Record>
void PatchRecord(std::string* bytes, SectionType type, size_t index,
                 const Record& record) {
  const SectionEntry entry = EntryOf(*bytes, type);
  ASSERT_EQ(entry.record_width, sizeof(record));
  ASSERT_LT(index, entry.record_count);
  std::memcpy(bytes->data() + entry.offset + index * sizeof(record), &record,
              sizeof(record));
  const uint32_t crc = Crc32(std::string_view(
      bytes->data() + entry.offset, static_cast<size_t>(entry.bytes)));
  for (size_t i = 0; i < TableOf(*bytes).size(); ++i) {
    const size_t at = sizeof(ContainerHeader) + i * sizeof(SectionEntry);
    SectionEntry e{};
    std::memcpy(&e, bytes->data() + at, sizeof(e));
    if (e.type != entry.type) continue;
    e.crc32 = crc;
    std::memcpy(bytes->data() + at, &e, sizeof(e));
  }
  ResealHeaderCrc(bytes);
}

template <typename Record>
Record RecordAt(const std::string& bytes, SectionType type, size_t index) {
  const SectionEntry entry = EntryOf(bytes, type);
  Record record{};
  std::memcpy(&record, bytes.data() + entry.offset + index * sizeof(record),
              sizeof(record));
  return record;
}

std::string MutatedCopy(const std::string& good_path, const std::string& name,
                        void (*mutate)(std::string*)) {
  Result<std::string> bytes = ReadFileToString(good_path);
  STMAKER_CHECK(bytes.ok());
  mutate(&*bytes);
  const std::string path = TempPrefix(name);
  STMAKER_CHECK(WriteFileToPath(path, *bytes).ok());
  return path;
}

// --- shared fixture world ---------------------------------------------------

/// One CSV data dir + a trained model in both formats, built once per test
/// binary. The model is trained on the world read *back from CSV* (the CSV
/// round trip quantizes coordinates) so the ModelManager tests can load
/// the same world the hierarchy was contracted on; the container itself
/// stores raw doubles and has no such quantization.
struct ContainerWorld {
  std::string dir;             ///< gen-style data dir (world CSVs).
  RoadNetwork* network;        ///< CSV-roundtripped network (lives forever).
  LandmarkIndex* landmarks;    ///< With trained significances.
  std::vector<RawTrajectory> raws;
  /// trajectories.csv as ReadTrajectoriesCsv returns it: the corpus `pack`
  /// embeds, and what a CSV-model snapshot serves.
  std::vector<RawTrajectory> corpus;
  STMaker* maker;              ///< Trained, with hierarchy + trip index.
  std::string csv_prefix;      ///< SaveModel output.
  std::string container_path;  ///< SaveModelContainer output.
};

const ContainerWorld& GetContainerWorld() {
  static const ContainerWorld& cw = *[] {
    const TestWorld& world = GetTestWorld();
    auto* c = new ContainerWorld();
    c->dir = ::testing::TempDir() + "/container_world";
    ::mkdir(c->dir.c_str(), 0755);  // EEXIST from a previous run is fine
    STMAKER_CHECK(
        WriteRoadNetworkCsv(c->dir + "/network", world.city.network).ok());
    PoiGeneratorOptions poi_options;
    poi_options.num_sites = 250;
    std::vector<RawPoi> pois =
        PoiGenerator(poi_options).Generate(world.city.network);
    STMAKER_CHECK(WritePoisCsv(c->dir + "/pois.csv", pois).ok());
    c->raws.reserve(world.history.size());
    for (const auto& trip : world.history) c->raws.push_back(trip.raw);
    STMAKER_CHECK(
        WriteTrajectoriesCsv(c->dir + "/trajectories.csv", c->raws).ok());
    Result<std::vector<RawTrajectory>> corpus =
        ReadTrajectoriesCsv(c->dir + "/trajectories.csv");
    STMAKER_CHECK(corpus.ok());
    c->corpus = std::move(*corpus);

    Result<RoadNetwork> network = ReadRoadNetworkCsv(c->dir + "/network");
    STMAKER_CHECK(network.ok());
    c->network = new RoadNetwork(std::move(*network));
    Result<std::vector<RawPoi>> loaded_pois = ReadPoisCsv(c->dir + "/pois.csv");
    STMAKER_CHECK(loaded_pois.ok());
    c->landmarks =
        new LandmarkIndex(LandmarkIndex::Build(*c->network, *loaded_pois));
    c->maker =
        new STMaker(c->network, c->landmarks, FeatureRegistry::BuiltIn());
    STMAKER_CHECK(c->maker->Train(c->raws).ok());
    STMAKER_CHECK(c->maker->BuildRoadHierarchy().ok());
    c->csv_prefix = c->dir + "/model";
    c->container_path = c->dir + "/model.stm";
    STMAKER_CHECK(c->maker->SaveModel(c->csv_prefix).ok());
    STMAKER_CHECK(
        c->maker->SaveModelContainer(c->container_path, c->corpus).ok());
    return c;
  }();
  return cw;
}

/// Everything a container-served model needs, with the mapping pinned
/// first so it outlives the network views (same order as ModelSnapshot).
/// Heap-allocated because the maker holds raw pointers into the struct —
/// the bundle's address must never change once the maker exists.
struct LoadedContainerModel {
  std::shared_ptr<MappedContainer> container;
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::vector<RawTrajectory> corpus;
  std::unique_ptr<STMaker> maker;
};

Result<std::unique_ptr<LoadedContainerModel>> LoadContainerModel(
    const std::string& path, int threads = 1) {
  auto m = std::make_unique<LoadedContainerModel>();
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

class ContainerTest : public ::testing::Test {
 protected:
  ContainerTest() : cw_(GetContainerWorld()) {}
  const ContainerWorld& cw_;
};

// --- round trips and golden parity ------------------------------------------

TEST_F(ContainerTest, SaveIsDeterministicAndLoadSaveIsIdentity) {
  // Identical model state -> byte-identical file, twice over: a second
  // save of the same maker, and a save of a container-loaded maker, must
  // both reproduce the original image exactly (the CLI pins the same
  // property end-to-end through pack -> unpack -> pack).
  Result<std::string> original = ReadFileToString(cw_.container_path);
  ASSERT_TRUE(original.ok());

  const std::string again = TempPrefix("container_again.stm");
  ASSERT_TRUE(cw_.maker->SaveModelContainer(again, cw_.corpus).ok());
  Result<std::string> again_bytes = ReadFileToString(again);
  ASSERT_TRUE(again_bytes.ok());
  EXPECT_TRUE(*original == *again_bytes) << "re-save is not deterministic";

  Result<std::unique_ptr<LoadedContainerModel>> loaded =
      LoadContainerModel(cw_.container_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string resaved = TempPrefix("container_resaved.stm");
  ASSERT_TRUE((*loaded)->maker->SaveModelContainer(resaved, (*loaded)->corpus)
                  .ok());
  Result<std::string> resaved_bytes = ReadFileToString(resaved);
  ASSERT_TRUE(resaved_bytes.ok());
  EXPECT_TRUE(*original == *resaved_bytes)
      << "load -> save did not reproduce the container";
}

TEST_F(ContainerTest, CsvAndContainerLoadedModelsSummarizeIdentically) {
  // Golden parity across formats *and* thread counts: the CSV-loaded
  // model at 1 thread and the container-loaded model at 1 and 4 threads
  // must produce byte-identical summaries over the corpus.
  STMaker csv_maker(cw_.network, cw_.landmarks, FeatureRegistry::BuiltIn());
  ASSERT_TRUE(csv_maker.LoadModel(cw_.csv_prefix).ok());

  Result<std::unique_ptr<LoadedContainerModel>> ctr1 = LoadContainerModel(cw_.container_path, 1);
  ASSERT_TRUE(ctr1.ok()) << ctr1.status().ToString();
  Result<std::unique_ptr<LoadedContainerModel>> ctr4 = LoadContainerModel(cw_.container_path, 4);
  ASSERT_TRUE(ctr4.ok()) << ctr4.status().ToString();
  EXPECT_TRUE((*ctr1)->maker->has_road_hierarchy());
  EXPECT_TRUE((*ctr1)->maker->has_trajectory_index());
  EXPECT_EQ((*ctr1)->maker->num_trained(), cw_.maker->num_trained());

  std::span<const RawTrajectory> batch(cw_.raws.data(),
                                       std::min<size_t>(cw_.raws.size(), 40));
  std::vector<Result<Summary>> expect = csv_maker.SummarizeBatch(batch);
  std::vector<Result<Summary>> got1 = (*ctr1)->maker->SummarizeBatch(batch);
  std::vector<Result<Summary>> got4 = (*ctr4)->maker->SummarizeBatch(batch);
  ASSERT_EQ(expect.size(), got1.size());
  ASSERT_EQ(expect.size(), got4.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i].ok(), got1[i].ok()) << "trip " << i;
    ASSERT_EQ(expect[i].ok(), got4[i].ok()) << "trip " << i;
    if (!expect[i].ok()) continue;
    EXPECT_EQ(expect[i]->text, got1[i]->text) << "trip " << i;
    EXPECT_EQ(expect[i]->text, got4[i]->text) << "trip " << i;
  }
}

// --- structural rejection (Open) --------------------------------------------

TEST_F(ContainerTest, OpenRejectsBadMagic) {
  const std::string path = MutatedCopy(
      cw_.container_path, "container_badmagic.stm",
      [](std::string* bytes) { (*bytes)[0] = 'X'; });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsContainerFile(path));
}

TEST_F(ContainerTest, OpenRejectsNewerFormatVersion) {
  // Version skew: a file written by a future format must be refused
  // outright (kFailedPrecondition), not half-read. The header CRC is
  // re-sealed so the version check itself is what fires.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_futurever.stm", [](std::string* bytes) {
        const uint32_t future = kContainerFormatVersion + 1;
        std::memcpy(bytes->data() + offsetof(ContainerHeader, format_version),
                    &future, sizeof(future));
        ResealHeaderCrc(bytes);
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition)
      << opened.status().ToString();
}

TEST_F(ContainerTest, OpenRejectsTruncatedFile) {
  Result<std::string> bytes = ReadFileToString(cw_.container_path);
  ASSERT_TRUE(bytes.ok());
  const std::string path = TempPrefix("container_truncated.stm");
  ASSERT_TRUE(
      WriteFileToPath(path, bytes->substr(0, bytes->size() - 128)).ok());
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

TEST_F(ContainerTest, OpenRejectsHeaderTableCorruption) {
  // A flipped byte inside the section table (CRC *not* re-sealed) must be
  // caught by the header CRC before any entry is trusted.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_tornheader.stm", [](std::string* bytes) {
        (*bytes)[sizeof(ContainerHeader) + 8] ^= 0x01;
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ContainerTest, OpenRejectsMisalignedSection) {
  // An offset that is not a multiple of kContainerAlignment breaks the
  // zero-copy contract (mapped records would be unaligned), so it is a
  // structural error even with a valid header CRC.
  const std::string path = MutatedCopy(
      cw_.container_path, "container_misaligned.stm", [](std::string* bytes) {
        SectionEntry entry{};
        const size_t entry_at = sizeof(ContainerHeader);
        std::memcpy(&entry, bytes->data() + entry_at, sizeof(entry));
        entry.offset += 8;
        std::memcpy(bytes->data() + entry_at, &entry, sizeof(entry));
        ResealHeaderCrc(bytes);
      });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
      << opened.status().ToString();
}

// --- required-vs-advisory damage policy -------------------------------------

TEST_F(ContainerTest, BitFlipInRequiredSectionFailsTheLoad) {
  // Open() succeeds — it validates structure only, never payloads — and
  // the per-section CRC check fails the *load* with kFailedPrecondition,
  // exactly like a CSV model with a bad manifest checksum. The corpus
  // sections are required too: a damaged corpus is never served.
  Result<std::string> good = ReadFileToString(cw_.container_path);
  ASSERT_TRUE(good.ok());
  for (SectionType type :
       {SectionType::kFeatureEdges, SectionType::kCorpusTrips,
        SectionType::kCorpusSamples}) {
    SCOPED_TRACE(static_cast<int>(type));
    std::string bytes = *good;
    FlipPayloadByte(&bytes, type);
    const std::string path = TempPrefix(
        "container_badsection_" + std::to_string(static_cast<int>(type)) +
        ".stm");
    ASSERT_TRUE(WriteFileToPath(path, bytes).ok());
    Result<std::unique_ptr<LoadedContainerModel>> loaded =
        LoadContainerModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
        << loaded.status().ToString();
  }
}

// --- serving corpus ---------------------------------------------------------

TEST_F(ContainerTest, LoadedCorpusIsBitIdenticalToTheCsvRead) {
  Result<std::shared_ptr<MappedContainer>> opened =
      MappedContainer::Open(cw_.container_path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<std::vector<RawTrajectory>> corpus =
      LoadTrajectoriesFromContainer(**opened);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ASSERT_FALSE(cw_.corpus.empty());
  ExpectSameCorpus(*corpus, cw_.corpus);
}

TEST_F(ContainerTest, HostileRecordsFailTheLoadAndRollBackAReload) {
  // Each case rewrites records and re-seals every CRC, so the file passes
  // Open() and the section check; only the semantic validation stands
  // between it and an out-of-bounds read of the samples section, or a
  // coordinate no spatial index can hold.
  Result<std::string> good = ReadFileToString(cw_.container_path);
  ASSERT_TRUE(good.ok());
  const SectionEntry trips = EntryOf(*good, SectionType::kCorpusTrips);
  const SectionEntry samples = EntryOf(*good, SectionType::kCorpusSamples);
  ASSERT_GE(trips.record_count, 3u);
  const size_t last = static_cast<size_t>(trips.record_count - 1);
  auto trip_at = [&](size_t index) {
    return RecordAt<CorpusTripRecord>(*good, SectionType::kCorpusTrips,
                                      index);
  };
  const CorpusTripRecord first = trip_at(0);
  const CorpusTripRecord second = trip_at(1);
  const CorpusTripRecord tail = trip_at(last);
  ASSERT_EQ(tail.samples_begin + tail.samples_count, samples.record_count);

  using Patch = std::function<void(std::string*)>;
  struct Case {
    const char* name;
    SectionType section;  ///< The section the patch rewrites.
    Patch patch;
    const char* message;  ///< Expected in the load error.
  };
  auto with = [](CorpusTripRecord r, uint64_t begin, uint64_t count) {
    r.samples_begin = begin;
    r.samples_count = count;
    return r;
  };
  auto trip_patch =
      [](std::vector<std::pair<size_t, CorpusTripRecord>> patches) -> Patch {
    return [patches](std::string* bytes) {
      for (const auto& [index, record] : patches) {
        PatchRecord(bytes, SectionType::kCorpusTrips, index, record);
      }
    };
  };
  NodeRecord far_node =
      RecordAt<NodeRecord>(*good, SectionType::kNodes, 0);
  far_node.x = 1e300;
  LandmarkRecord nan_landmark =
      RecordAt<LandmarkRecord>(*good, SectionType::kLandmarks, 0);
  nan_landmark.y = std::nan("");
  const uint64_t kMax = ~uint64_t{0};
  const uint64_t third_begin = second.samples_begin + second.samples_count;
  const char* kRange = "is not the contiguous run";
  const std::vector<Case> cases = {
      {"overlaps the previous trip", SectionType::kCorpusTrips,
       trip_patch({{1, with(second, 0, second.samples_count)}}), kRange},
      {"leaves a gap", SectionType::kCorpusTrips,
       trip_patch(
           {{1, with(second, second.samples_begin + 1,
                     second.samples_count)}}),
       kRange},
      {"first trip does not start at 0", SectionType::kCorpusTrips,
       trip_patch({{0, with(first, 1, first.samples_count)}}), kRange},
      {"runs past the end", SectionType::kCorpusTrips,
       trip_patch(
           {{last, with(tail, tail.samples_begin, tail.samples_count + 1)}}),
       kRange},
      {"count wraps past 2^64", SectionType::kCorpusTrips,
       trip_patch({{last, with(tail, tail.samples_begin, kMax)}}), kRange},
      {"begin far out of bounds", SectionType::kCorpusTrips,
       trip_patch({{last, with(tail, kMax - 1, 2)}}), kRange},
      {"trips cover fewer samples than the section",
       SectionType::kCorpusTrips,
       trip_patch(
           {{last, with(tail, tail.samples_begin, tail.samples_count - 1)}}),
       "cover"},
      // Contiguous modulo 2^64 and summing to the samples count: trip 0
      // claims 2^64-1 fixes and trip 1 wraps the running total back to
      // where trip 2 begins. Only the per-trip bounds check catches it.
      {"ranges wrap around to a matching total", SectionType::kCorpusTrips,
       trip_patch({{0, with(first, 0, kMax)},
                   {1, with(second, kMax, third_begin + 1)}}),
       kRange},
      // Node 0 is an edge endpoint, so the edge geometry disagrees with it
      // too; the coordinate bound must fire first, before any index cell
      // arithmetic sees 1e300.
      {"node at x = 1e300", SectionType::kNodes,
       [&](std::string* bytes) {
         PatchRecord(bytes, SectionType::kNodes, 0, far_node);
       },
       "section 'nodes' record 0 position"},
      {"landmark at y = NaN", SectionType::kLandmarks,
       [&](std::string* bytes) {
         PatchRecord(bytes, SectionType::kLandmarks, 0, nan_landmark);
       },
       "section 'landmarks' record 0 position"},
  };

  ModelManagerOptions opts;
  opts.data_dir = cw_.dir;
  opts.model_prefix = cw_.container_path;
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  const uint64_t base_failures = manager.reload_failures();
  uint64_t failures = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string bytes = *good;
    c.patch(&bytes);
    const std::string path = TempPrefix("container_hostile_records.stm");
    ASSERT_TRUE(WriteFileToPath(path, bytes).ok());
    Result<std::shared_ptr<MappedContainer>> opened =
        MappedContainer::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const SectionEntry* entry = (*opened)->Find(c.section);
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE((*opened)->VerifyCrc(*entry)) << "CRC was not re-sealed";
    Result<std::unique_ptr<LoadedContainerModel>> loaded =
        LoadContainerModel(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(c.message), std::string::npos)
        << loaded.status().ToString();

    Status reload = manager.Reload(path);
    EXPECT_EQ(reload.code(), StatusCode::kInvalidArgument)
        << reload.ToString();
    EXPECT_EQ(manager.reload_failures(), base_failures + ++failures);
    EXPECT_EQ(manager.Current().get(), before.get());
  }
}

TEST_F(ContainerTest, ContainerWithoutCorpusSectionsIsRejected) {
  // A container packed before the corpus sections existed: every other
  // section byte-identical, 22 and 23 absent. There is no fallback to
  // trajectories.csv — the load names the missing section, and a reload
  // to such a file rolls back.
  Result<std::shared_ptr<MappedContainer>> good =
      MappedContainer::Open(cw_.container_path);
  ASSERT_TRUE(good.ok());
  ContainerWriter writer;
  for (const SectionEntry& entry : (*good)->sections()) {
    const auto type = static_cast<SectionType>(entry.type);
    if (type == SectionType::kCorpusTrips ||
        type == SectionType::kCorpusSamples) {
      continue;
    }
    writer.AddSection(type, entry.version, entry.record_width,
                      std::string((*good)->Blob(entry)));
  }
  const std::string path = TempPrefix("container_nocorpus.stm");
  ASSERT_TRUE(writer.Finish(path).ok());

  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<std::vector<RawTrajectory>> corpus =
      LoadTrajectoriesFromContainer(**opened);
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(corpus.status().message().find("missing required section"),
            std::string::npos)
      << corpus.status().ToString();

  ModelManagerOptions opts;
  opts.data_dir = cw_.dir;
  opts.model_prefix = cw_.container_path;
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  Status reload = manager.Reload(path);
  EXPECT_EQ(reload.code(), StatusCode::kInvalidArgument) << reload.ToString();
  EXPECT_EQ(manager.Current().get(), before.get());
}

TEST_F(ContainerTest, BitFlipInNetworkSectionFailsTheNetworkLoad) {
  const std::string path =
      MutatedCopy(cw_.container_path, "container_badnodes.stm",
                  [](std::string* bytes) {
                    FlipPayloadByte(bytes, SectionType::kNodes);
                  });
  Result<std::shared_ptr<MappedContainer>> opened = MappedContainer::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Result<RoadNetwork> network = LoadNetworkFromContainer(**opened);
  ASSERT_FALSE(network.ok());
  EXPECT_EQ(network.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ContainerTest, DamagedHierarchySectionIsAdvisory) {
  // CH damage degrades to Dijkstra with a warning and a counter — the
  // same advisory policy as a damaged _ch.csv — and everything else in
  // the container still serves.
  const std::string path =
      MutatedCopy(cw_.container_path, "container_badch.stm",
                  [](std::string* bytes) {
                    FlipPayloadByte(bytes, SectionType::kChArcs);
                  });
  Counter& failures = MetricsRegistry::Global().counter(
      "router.ch.load_failures");
  const uint64_t base = failures.value();
  Result<std::unique_ptr<LoadedContainerModel>> loaded = LoadContainerModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->maker->has_road_hierarchy());
  EXPECT_TRUE((*loaded)->maker->has_trajectory_index());
  EXPECT_EQ(failures.value(), base + 1);
  // The degraded model still summarizes, identically to the intact one.
  Result<Summary> expect = cw_.maker->Summarize(cw_.raws[0]);
  Result<Summary> got = (*loaded)->maker->Summarize(cw_.raws[0]);
  ASSERT_EQ(expect.ok(), got.ok());
  if (expect.ok()) EXPECT_EQ(expect->text, got->text);
}

TEST_F(ContainerTest, DamagedTripIndexSectionIsAdvisory) {
  const std::string path =
      MutatedCopy(cw_.container_path, "container_badcells.stm",
                  [](std::string* bytes) {
                    FlipPayloadByte(bytes, SectionType::kTripCells);
                  });
  Counter& failures =
      MetricsRegistry::Global().counter("index.load_failures");
  const uint64_t base = failures.value();
  Result<std::unique_ptr<LoadedContainerModel>> loaded = LoadContainerModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE((*loaded)->maker->has_trajectory_index());
  EXPECT_TRUE((*loaded)->maker->has_road_hierarchy());
  EXPECT_EQ(failures.value(), base + 1);
}

// --- mmap fallback ----------------------------------------------------------

TEST_F(ContainerTest, MapFailureFallsBackToHeapRead) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "build without -DSTMAKER_FAILPOINTS=ON";
  }
  Counter& fallbacks =
      MetricsRegistry::Global().counter("container.map_fallbacks");
  const uint64_t base = fallbacks.value();
  ArmFailpoint("container/map");
  Result<std::unique_ptr<LoadedContainerModel>> loaded = LoadContainerModel(cw_.container_path);
  DisarmAllFailpoints();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->container->heap_backed());
  EXPECT_EQ(fallbacks.value(), base + 1);
  EXPECT_TRUE((*loaded)->maker->has_road_hierarchy());
  // Heap-backed and mapped reads serve identical bytes.
  Result<Summary> expect = cw_.maker->Summarize(cw_.raws[1]);
  Result<Summary> got = (*loaded)->maker->Summarize(cw_.raws[1]);
  ASSERT_EQ(expect.ok(), got.ok());
  if (expect.ok()) EXPECT_EQ(expect->text, got->text);
}

// --- model-manager lifecycle ------------------------------------------------

TEST_F(ContainerTest, ManagerServesContainerAndRollsBackOnCorruptReload) {
  // The --model flag is polymorphic: the manager loads a container just
  // like a CSV prefix. A reload pointed at a damaged container must roll
  // back — same snapshot object serving, old mapping still alive (the
  // summarize-after-rollback below walks the mapped CSR arrays).
  const std::string bad =
      MutatedCopy(cw_.container_path, "container_reload_bad.stm",
                  [](std::string* bytes) {
                    FlipPayloadByte(bytes, SectionType::kTransitions);
                  });
  const std::string noch =
      MutatedCopy(cw_.container_path, "container_reload_noch.stm",
                  [](std::string* bytes) {
                    FlipPayloadByte(bytes, SectionType::kChArcs);
                  });

  ModelManagerOptions opts;
  opts.data_dir = cw_.dir;
  opts.model_prefix = cw_.container_path;
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  const uint64_t base_failures = manager.reload_failures();
  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  ASSERT_NE(before, nullptr);
  ASSERT_NE(before->container, nullptr);
  EXPECT_TRUE(before->maker->has_road_hierarchy());
  Result<Summary> first = before->maker->Summarize(before->trajectories[0]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Corrupt required section -> load fails -> rollback.
  Status reload = manager.Reload(bad);
  EXPECT_EQ(reload.code(), StatusCode::kFailedPrecondition)
      << reload.ToString();
  EXPECT_EQ(manager.reload_failures(), base_failures + 1);
  EXPECT_EQ(manager.Current().get(), before.get());

  // Advisory CH damage -> candidate loads but lost its hierarchy -> the
  // hierarchy-regression policy refuses the downgrade.
  reload = manager.Reload(noch);
  EXPECT_EQ(reload.code(), StatusCode::kFailedPrecondition)
      << reload.ToString();
  EXPECT_EQ(manager.reload_failures(), base_failures + 2);
  EXPECT_EQ(manager.Current().get(), before.get());

  // The surviving snapshot's mapping is untouched by the failed loads.
  Result<Summary> after = before->maker->Summarize(before->trajectories[0]);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(first->text, after->text);

  // And a good reload (container -> CSV prefix this time) still swaps.
  ASSERT_TRUE(manager.Reload(cw_.csv_prefix).ok());
  std::shared_ptr<const ModelSnapshot> swapped = manager.Current();
  EXPECT_EQ(swapped->version, before->version + 3);
  EXPECT_EQ(swapped->container, nullptr);
  Result<Summary> csv_served =
      swapped->maker->Summarize(swapped->trajectories[0]);
  ASSERT_TRUE(csv_served.ok());
  EXPECT_EQ(first->text, csv_served->text);
  // Both formats serve the same corpus, bit for bit.
  ExpectSameCorpus(swapped->trajectories, before->trajectories);
}

TEST_F(ContainerTest, ManagerServesAndReloadsContainerWithoutTrajectoriesCsv) {
  // A container snapshot carries its corpus: once the manager serves one,
  // <data_dir>/trajectories.csv can go away and in-place reloads still
  // succeed. The CSV-model path is unchanged — it still needs the file,
  // so a reload to the CSV prefix fails and rolls back.
  const std::string dir = ::testing::TempDir() + "/container_no_csv";
  ::mkdir(dir.c_str(), 0755);  // EEXIST from a previous run is fine
  for (const char* file : {"network_nodes.csv", "network_edges.csv",
                           "pois.csv", "trajectories.csv", "model.stm"}) {
    Result<std::string> bytes = ReadFileToString(cw_.dir + "/" + file);
    ASSERT_TRUE(bytes.ok()) << file;
    ASSERT_TRUE(WriteFileToPath(dir + "/" + file, *bytes).ok()) << file;
  }
  ModelManagerOptions opts;
  opts.data_dir = dir;
  opts.model_prefix = dir + "/model.stm";
  ModelManager manager(opts);
  ASSERT_TRUE(manager.Initialize().ok());
  ASSERT_EQ(::unlink((dir + "/trajectories.csv").c_str()), 0);

  std::shared_ptr<const ModelSnapshot> before = manager.Current();
  ExpectSameCorpus(before->trajectories, cw_.corpus);
  ASSERT_TRUE(manager.Reload().ok());
  std::shared_ptr<const ModelSnapshot> reloaded = manager.Current();
  EXPECT_EQ(reloaded->version, before->version + 1);
  ExpectSameCorpus(reloaded->trajectories, cw_.corpus);
  Result<Summary> expect = before->maker->Summarize(before->trajectories[2]);
  Result<Summary> got = reloaded->maker->Summarize(reloaded->trajectories[2]);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(expect->text, got->text);

  Status csv_reload = manager.Reload(cw_.csv_prefix);
  EXPECT_EQ(csv_reload.code(), StatusCode::kIoError) << csv_reload.ToString();
  EXPECT_EQ(manager.Current().get(), reloaded.get());
}

}  // namespace
}  // namespace stmaker
