// A naive reference of the paper's feature selection (Sec. V), restated
// from its definitions over the trained model's public accessors, and
// differential-tested against STMaker::Summarize / SummarizeBatch:
//
//   - each partition TP is compared with the popular route PR between its
//     endpoint landmarks (Sec. V-A);
//   - a routing feature's irregular rate is w_f times the edit distance
//     between TP's and PR's feature sequences, normalized by the longer
//     sequence; PR's values are its edges' historical rows, with
//     categorical averages snapped to the nearest category;
//   - a moving feature's rate is w_f times the mean normalized deviation
//     of each segment from its historical-feature-map row (Sec. V-B),
//     normalized by the partition's largest value;
//   - an edge the history never saw reads the global average;
//   - a feature is selected when its rate is strictly above η;
//   - a model with nothing to compare against marks every feature
//     kNoBaseline with a neutral rate of 0.
//
// Rows are read from HistoricalFeatureMap::Edges() and divided here
// (sums / count), routes from PopularRouteMiner::PopularRoute, features
// from a stand-alone FeatureExtractor. Rates, selected ids and the
// selected value/regular pairs must agree bit for bit: the reference
// evaluates the same arithmetic in the same order, only without any of
// the production code's sharing.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/feature_extractor.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "landmark/poi_generator.h"
#include "roadnet/map_generator.h"
#include "test_world.h"
#include "traj/generator.h"
#include "traj/sanitize.h"

namespace stmaker {
namespace {

// --------------------------------------------------------------------------
// Worlds and models.
// --------------------------------------------------------------------------

/// A generated city with its POIs and a historical corpus. Every model
/// below gets its own LandmarkIndex, because training installs landmark
/// significance into the index it was given.
struct OracleWorld {
  GeneratedMap city;
  std::vector<RawPoi> pois;
  std::vector<RawTrajectory> corpus;

  std::unique_ptr<LandmarkIndex> NewLandmarks() const {
    return std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(city.network, pois));
  }
};

std::unique_ptr<OracleWorld> BuildWorld(int blocks, uint64_t map_seed,
                                        int sites, size_t trips,
                                        uint64_t corpus_seed) {
  auto w = std::make_unique<OracleWorld>();
  MapGeneratorOptions map_options;
  map_options.blocks_x = blocks;
  map_options.blocks_y = blocks;
  map_options.seed = map_seed;
  w->city = MapGenerator(map_options).Generate();
  PoiGeneratorOptions poi_options;
  poi_options.num_sites = sites;
  w->pois = PoiGenerator(poi_options).Generate(w->city.network);
  std::unique_ptr<LandmarkIndex> landmarks = w->NewLandmarks();
  TrajectoryGenerator generator(&w->city.network, landmarks.get());
  for (GeneratedTrip& t : generator.GenerateCorpus(
           trips, /*num_travelers=*/40, /*num_days=*/7, corpus_seed)) {
    w->corpus.push_back(std::move(t.raw));
  }
  return w;
}

/// The TestWorld's city and corpus, and a smaller city of its own.
const OracleWorld& City14() {
  static const OracleWorld* w = BuildWorld(14, 42, 250, 400, 99).release();
  return *w;
}
const OracleWorld& City10() {
  static const OracleWorld* w = BuildWorld(10, 7, 150, 250, 5).release();
  return *w;
}

/// A trained maker over its own landmarks, or one loaded from a container.
struct Model {
  const RoadNetwork* network = nullptr;
  std::unique_ptr<LandmarkIndex> landmarks;
  std::unique_ptr<STMaker> trained;
  std::unique_ptr<testing::LoadedModel> loaded;

  const STMaker& maker() const { return loaded ? *loaded->maker : *trained; }
};

Model Train(const OracleWorld& world, const std::vector<RawTrajectory>& corpus,
            const std::vector<std::pair<std::string, double>>& weights = {}) {
  Model m;
  m.network = &world.city.network;
  m.landmarks = world.NewLandmarks();
  m.trained = std::make_unique<STMaker>(&world.city.network,
                                        m.landmarks.get(),
                                        FeatureRegistry::BuiltIn());
  for (const auto& [id, w] : weights) {
    STMAKER_CHECK(m.trained->registry().SetWeight(id, w).ok());
  }
  STMAKER_CHECK(m.trained->Train(corpus).ok());
  return m;
}

/// A model whose history is empty: City14's trained container with the
/// transition and feature-edge sections emptied (and the meta counts and
/// the stats section to match), loaded like any served model.
Model EmptyHistory() {
  const OracleWorld& world = City14();
  Model trained = Train(world, world.corpus);
  const std::string full = ::testing::TempDir() + "/oracle_full.stm";
  STMAKER_CHECK(trained.maker().SaveModelContainer(full, world.corpus).ok());
  Result<std::shared_ptr<MappedContainer>> c = MappedContainer::Open(full);
  STMAKER_CHECK(c.ok());
  const size_t num_features = trained.maker().registry().size();
  ContainerWriter writer;
  for (const SectionEntry& entry : (*c)->sections()) {
    std::string payload((*c)->Blob(entry));
    switch (static_cast<SectionType>(entry.type)) {
      case SectionType::kMeta: {
        ContainerMetaRecord meta;
        STMAKER_CHECK(payload.size() == sizeof(meta));
        std::memcpy(&meta, payload.data(), sizeof(meta));
        meta.num_transitions = 0;
        meta.num_feature_edges = 0;
        payload.assign(reinterpret_cast<const char*>(&meta), sizeof(meta));
        break;
      }
      case SectionType::kTransitions:
      case SectionType::kFeatureEdges:
        payload.clear();
        break;
      case SectionType::kStats:
        payload.assign((num_features + 1) * sizeof(double), '\0');
        break;
      default:
        break;
    }
    writer.AddSection(static_cast<SectionType>(entry.type), entry.version,
                      entry.record_width, std::move(payload));
  }
  const std::string empty = ::testing::TempDir() + "/oracle_empty.stm";
  STMAKER_CHECK(writer.Finish(empty).ok());
  Result<std::unique_ptr<testing::LoadedModel>> loaded =
      testing::LoadModelFile(empty);
  STMAKER_CHECK(loaded.ok());
  Model m;
  m.loaded = std::move(loaded).value();
  m.network = &m.loaded->network;
  return m;
}

// --------------------------------------------------------------------------
// The reference.
// --------------------------------------------------------------------------

/// Plain Levenshtein over feature values: insert/delete cost 1;
/// substitution is 0/1 equality for categorical values and the absolute
/// difference over the largest magnitude in either sequence for numeric
/// ones. Full matrix, no row reuse.
double EditDistance(const std::vector<double>& a, const std::vector<double>& b,
                    FeatureValueType type) {
  double scale = 0;
  if (type == FeatureValueType::kNumeric) {
    for (double v : a) scale = std::max(scale, std::fabs(v));
    for (double v : b) scale = std::max(scale, std::fabs(v));
  }
  auto cost = [&](double x, double y) {
    if (type == FeatureValueType::kCategorical) return x == y ? 0.0 : 1.0;
    return scale > 0 ? std::fabs(x - y) / scale : 0.0;
  };
  std::vector<std::vector<double>> d(a.size() + 1,
                                     std::vector<double>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<double>(i);
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<double>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j - 1] + cost(a[i - 1], b[j - 1]),
                          d[i - 1][j] + 1.0, d[i][j - 1] + 1.0});
    }
  }
  return d[a.size()][b.size()];
}

/// Length-weighted mode over a partition's segments; ties go to the
/// smallest value.
template <typename T, typename Get>
T ModeByLength(const std::vector<SegmentFeatures>& segs, size_t begin,
               size_t end, Get get) {
  std::map<T, double> mass;
  for (size_t s = begin; s < end; ++s) mass[get(segs[s])] += segs[s].length_m;
  T best{};
  double best_mass = -1;
  for (const auto& [value, m] : mass) {
    if (m > best_mass) {
      best = value;
      best_mass = m;
    }
  }
  return best;
}

/// What the reference expects of one partition.
struct Expected {
  std::vector<double> rates;
  std::vector<BaselineStatus> baselines;  ///< empty: all historical
  struct Pick {
    size_t feature;
    double value;
    double regular;
  };
  std::vector<Pick> selected;
};

class Reference {
 public:
  explicit Reference(const STMaker& maker) : maker_(maker) {
    for (const HistoricalFeatureMap::EdgeRecord& e :
         maker.feature_map()->Edges()) {
      rows_.emplace(std::make_pair(e.from, e.to), e);
    }
  }

  /// Historical value of feature f on the edge (from → to), or the global
  /// average for an edge the history never saw.
  double Row(LandmarkId from, LandmarkId to, size_t f) const {
    auto it = rows_.find({from, to});
    if (it == rows_.end()) return maker_.feature_map()->GlobalAverage(f);
    return it->second.sums[f] / it->second.count;
  }

  Expected Partition(const SymbolicTrajectory& sym,
                     const std::vector<SegmentFeatures>& segs, size_t begin,
                     size_t end, double eta) const {
    const FeatureRegistry& registry = maker_.registry();
    const size_t n = end - begin;
    const LandmarkId from = sym.samples[begin].landmark;
    const LandmarkId to = sym.samples[end].landmark;
    Result<std::vector<LandmarkId>> route =
        maker_.popular_routes().PopularRoute(from, to);
    const bool no_routing = maker_.popular_routes().NumTransitions() == 0;
    const bool no_moving = maker_.feature_map()->Edges().empty();

    Expected out;
    bool degraded = false;
    std::vector<BaselineStatus> baselines(registry.size(),
                                          BaselineStatus::kHistorical);
    for (size_t f = 0; f < registry.size(); ++f) {
      const FeatureDef& def = registry.def(f);
      const bool routing = def.kind == FeatureKind::kRouting;
      if (routing ? no_routing : no_moving) {
        out.rates.push_back(0.0);
        baselines[f] = BaselineStatus::kNoBaseline;
        degraded = true;
        continue;
      }
      if (routing) {
        std::vector<double> trip;
        for (size_t s = begin; s < end; ++s) trip.push_back(segs[s].values[f]);
        std::vector<double> popular;
        if (route.ok()) {
          const std::vector<LandmarkId>& r = route.value();
          for (size_t i = 0; i + 1 < r.size(); ++i) {
            double v = Row(r[i], r[i + 1], f);
            if (def.value_type == FeatureValueType::kCategorical) {
              v = std::round(v);
            }
            popular.push_back(v);
          }
        }
        const double longer =
            static_cast<double>(std::max(trip.size(), popular.size()));
        out.rates.push_back(def.weight *
                            EditDistance(trip, popular, def.value_type) /
                            longer);
      } else {
        double scale = 0;
        for (size_t s = begin; s < end; ++s) {
          scale = std::max(scale, std::fabs(segs[s].values[f]));
        }
        double sum = 0;
        if (scale > 0) {
          for (size_t s = begin; s < end; ++s) {
            const double regular =
                Row(sym.samples[s].landmark, sym.samples[s + 1].landmark, f);
            sum += std::fabs(segs[s].values[f] - regular) / scale;
          }
        }
        out.rates.push_back(def.weight * sum / static_cast<double>(n));
      }
    }
    if (degraded) out.baselines = baselines;

    // The partition's own values.
    double length = 0, duration = 0, width = 0, stay_s = 0;
    int stays = 0, uturns = 0;
    for (size_t s = begin; s < end; ++s) {
      length += segs[s].length_m;
      duration += segs[s].duration_s;
      width += segs[s].mean_width_m * segs[s].length_m;
      stays += segs[s].num_stays;
      stay_s += segs[s].total_stay_s;
      uturns += segs[s].num_uturns;
    }
    const RoadGrade grade = ModeByLength<RoadGrade>(
        segs, begin, end, [](const SegmentFeatures& s) {
          return s.dominant_grade;
        });
    const TrafficDirection direction = ModeByLength<TrafficDirection>(
        segs, begin, end, [](const SegmentFeatures& s) {
          return s.dominant_direction;
        });
    const double mean_width = length > 0 ? width / length : 0;
    const double speed = duration > 0 ? length / duration * 3.6 : 0;

    // The usual values: per-segment rows averaged over the partition, or
    // for routing features the popular route's rows (modal category or
    // mean) when the route has edges.
    auto segment_mean = [&](size_t f) {
      double sum = 0;
      for (size_t s = begin; s < end; ++s) {
        sum += Row(sym.samples[s].landmark, sym.samples[s + 1].landmark, f);
      }
      return sum / static_cast<double>(n);
    };
    auto route_usual = [&](size_t f) {
      if (!route.ok() || route.value().size() < 2) return segment_mean(f);
      const std::vector<LandmarkId>& r = route.value();
      if (registry.def(f).value_type == FeatureValueType::kCategorical) {
        std::map<long, int> votes;
        for (size_t i = 0; i + 1 < r.size(); ++i) {
          votes[std::lround(Row(r[i], r[i + 1], f))]++;
        }
        long best = 0;
        int best_votes = -1;
        for (const auto& [value, count] : votes) {
          if (count > best_votes) {
            best = value;
            best_votes = count;
          }
        }
        return static_cast<double>(best);
      }
      double sum = 0;
      for (size_t i = 0; i + 1 < r.size(); ++i) sum += Row(r[i], r[i + 1], f);
      return sum / static_cast<double>(r.size() - 1);
    };

    for (size_t f = 0; f < registry.size(); ++f) {
      if (!(out.rates[f] > eta)) continue;
      switch (f) {
        case kGradeOfRoadFeature: {
          const int usual = std::clamp(
              static_cast<int>(std::lround(route_usual(f))), 1, 7);
          if (usual == static_cast<int>(grade)) continue;
          out.selected.push_back({f, static_cast<double>(grade),
                                  static_cast<double>(usual)});
          break;
        }
        case kRoadWidthFeature: {
          const double usual = route_usual(f);
          if (usual <= 0 || std::fabs(mean_width - usual) / usual < 0.1) {
            continue;
          }
          out.selected.push_back({f, mean_width, usual});
          break;
        }
        case kTrafficDirectionFeature: {
          const TrafficDirection usual = route_usual(f) >= 1.5
                                             ? TrafficDirection::kOneWay
                                             : TrafficDirection::kTwoWay;
          if (usual == direction) continue;
          out.selected.push_back({f, static_cast<double>(direction),
                                  static_cast<double>(usual)});
          break;
        }
        case kSpeedFeature:
          out.selected.push_back({f, speed, segment_mean(f)});
          break;
        case kStayPointsFeature:
          if (stays == 0) continue;
          out.selected.push_back(
              {f, static_cast<double>(stays), segment_mean(f)});
          break;
        case kUTurnsFeature:
          if (uturns == 0) continue;
          out.selected.push_back(
              {f, static_cast<double>(uturns), segment_mean(f)});
          break;
        default:
          ADD_FAILURE() << "the reference covers the built-in features only";
      }
    }
    return out;
  }

 private:
  const STMaker& maker_;
  std::map<std::pair<LandmarkId, LandmarkId>, HistoricalFeatureMap::EdgeRecord>
      rows_;
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Checks one summary of `raw` against the reference; returns the number
/// of partitions compared (0 when the trip does not summarize).
size_t CheckSummary(const Model& model, const Reference& reference,
                    const RawTrajectory& raw, const SummaryOptions& options,
                    const Result<Summary>& summary) {
  const STMaker& maker = model.maker();
  Result<RawTrajectory> sanitized =
      SanitizeTrajectory(raw, STMakerOptions().sanitize);
  if (!sanitized.ok()) {
    EXPECT_FALSE(summary.ok());
    return 0;
  }
  Result<CalibratedTrajectory> calibrated = maker.Calibrate(*sanitized);
  if (!calibrated.ok()) {
    EXPECT_FALSE(summary.ok());
    return 0;
  }
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  if (!summary.ok()) return 0;
  FeatureExtractor extractor(model.network, &maker.landmarks(),
                             &maker.registry(), STMakerOptions().extraction);
  Result<std::vector<SegmentFeatures>> segs = extractor.Extract(*calibrated);
  EXPECT_TRUE(segs.ok());
  if (!segs.ok()) return 0;
  const SymbolicTrajectory& sym = calibrated->symbolic;
  EXPECT_EQ(summary->symbolic.samples.size(), sym.samples.size());

  size_t next = 0;
  for (const PartitionSummary& p : summary->partitions) {
    EXPECT_EQ(p.seg_begin, next);
    EXPECT_LT(p.seg_begin, p.seg_end);
    EXPECT_LE(p.seg_end, segs->size());
    if (p.seg_begin >= p.seg_end || p.seg_end > segs->size()) return 0;
    next = p.seg_end;
    SCOPED_TRACE(::testing::Message()
                 << "partition [" << p.seg_begin << ", " << p.seg_end
                 << ") k=" << options.k << " eta=" << options.eta);
    EXPECT_EQ(p.source, sym.samples[p.seg_begin].landmark);
    EXPECT_EQ(p.destination, sym.samples[p.seg_end].landmark);
    Expected want = reference.Partition(sym, *segs, p.seg_begin, p.seg_end,
                                        options.eta);
    EXPECT_EQ(p.irregular_rates.size(), want.rates.size());
    for (size_t f = 0; f < want.rates.size() && f < p.irregular_rates.size();
         ++f) {
      EXPECT_EQ(Bits(p.irregular_rates[f]), Bits(want.rates[f]))
          << "feature " << f << ": " << p.irregular_rates[f] << " vs "
          << want.rates[f];
    }
    EXPECT_EQ(p.baselines, want.baselines);
    EXPECT_EQ(p.selected.size(), want.selected.size());
    for (size_t i = 0; i < want.selected.size() && i < p.selected.size();
         ++i) {
      const SelectedFeature& got = p.selected[i];
      EXPECT_EQ(got.feature, want.selected[i].feature);
      EXPECT_EQ(Bits(got.irregular_rate), Bits(want.rates[got.feature]));
      EXPECT_EQ(Bits(got.value), Bits(want.selected[i].value))
          << "feature " << got.feature << ": " << got.value << " vs "
          << want.selected[i].value;
      EXPECT_EQ(Bits(got.regular), Bits(want.selected[i].regular))
          << "feature " << got.feature << ": " << got.regular << " vs "
          << want.selected[i].regular;
    }
  }
  EXPECT_EQ(next, segs->size());
  return summary->partitions.size();
}

/// The (k, η) grid every model is checked over.
std::vector<SummaryOptions> Grid() {
  std::vector<SummaryOptions> grid;
  for (int k : {0, 1, 3}) {
    for (double eta : {0.0, 0.1, 0.2, 0.5}) {
      SummaryOptions options;
      options.k = k;
      options.eta = eta;
      grid.push_back(options);
    }
  }
  return grid;
}

struct Tally {
  size_t partitions = 0;
  size_t selected = 0;
};

/// Summarize, one trip at a time, over the grid.
Tally CheckModel(const Model& model, const std::vector<RawTrajectory>& trips) {
  const STMaker& maker = model.maker();
  Reference reference(maker);
  Tally tally;
  for (const SummaryOptions& options : Grid()) {
    for (size_t t = 0; t < trips.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "trip " << t);
      Result<Summary> summary = maker.Summarize(trips[t], options);
      tally.partitions +=
          CheckSummary(model, reference, trips[t], options, summary);
      if (summary.ok()) {
        for (const PartitionSummary& p : summary->partitions) {
          tally.selected += p.selected.size();
        }
      }
      if (::testing::Test::HasFailure()) return tally;
    }
  }
  return tally;
}

/// SummarizeBatch at 4 threads over the grid.
size_t CheckBatch(const Model& model,
                  const std::vector<RawTrajectory>& trips) {
  const STMaker& maker = model.maker();
  Reference reference(maker);
  size_t partitions = 0;
  for (const SummaryOptions& options : Grid()) {
    std::vector<Result<Summary>> batch =
        maker.SummarizeBatch(trips, options, /*num_threads=*/4);
    EXPECT_EQ(batch.size(), trips.size());
    for (size_t t = 0; t < trips.size() && t < batch.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "batch trip " << t);
      partitions +=
          CheckSummary(model, reference, trips[t], options, batch[t]);
      if (::testing::Test::HasFailure()) return partitions;
    }
  }
  return partitions;
}

std::vector<RawTrajectory> FirstTrips(const OracleWorld& world, size_t n) {
  n = std::min(n, world.corpus.size());
  return {world.corpus.begin(), world.corpus.begin() + n};
}

// --------------------------------------------------------------------------
// The cases.
// --------------------------------------------------------------------------

TEST(SelectionOracleTest, FullHistoryMatchesTheReference) {
  const OracleWorld& world = City14();
  Model m = Train(world, world.corpus);
  Tally tally = CheckModel(m, FirstTrips(world, 120));
  EXPECT_GT(tally.partitions, 1000u);
  EXPECT_GT(tally.selected, 100u);
}

TEST(SelectionOracleTest, WeightedFeaturesMatchTheReference) {
  // Non-unit weights on every feature, so a dropped w_f shows.
  const OracleWorld& world = City10();
  Model m = Train(world, world.corpus,
                  {{"grade_of_road", 0.5},
                   {"road_width", 1.75},
                   {"traffic_direction", 1.5},
                   {"speed", 2.5},
                   {"stay_points", 0.75},
                   {"u_turns", 3.0}});
  Tally tally = CheckModel(m, FirstTrips(world, 120));
  EXPECT_GT(tally.partitions, 1000u);
  EXPECT_GT(tally.selected, 100u);
}

TEST(SelectionOracleTest, SparseHistoryFallsBackToGlobalAverages) {
  // Four training trips (GoldenTest.NoBaselineMaker's): most partitions of
  // other trips have no popular route and most segments no row.
  const OracleWorld& world = City14();
  std::vector<RawTrajectory> four(world.corpus.begin() + 200,
                                  world.corpus.begin() + 204);
  Model m = Train(world, four);
  Tally tally = CheckModel(m, FirstTrips(world, 80));
  EXPECT_GT(tally.partitions, 500u);
  EXPECT_GT(tally.selected, 50u);
}

TEST(SelectionOracleTest, EmptyHistoryIsNoBaselineAndSelectsNothing) {
  Model m = EmptyHistory();
  const STMaker& maker = m.maker();
  ASSERT_EQ(maker.popular_routes().NumTransitions(), 0u);
  ASSERT_TRUE(maker.feature_map()->Edges().empty());
  Tally tally = CheckModel(m, FirstTrips(City14(), 40));
  EXPECT_GT(tally.partitions, 100u);
  EXPECT_EQ(tally.selected, 0u);
}

TEST(SelectionOracleTest, BatchAtFourThreadsMatchesTheReference) {
  const OracleWorld& world = City10();
  Model m = Train(world, world.corpus, {{"speed", 2.0}, {"u_turns", 0.5}});
  EXPECT_GT(CheckBatch(m, FirstTrips(world, 60)), 500u);
  const OracleWorld& sparse_world = City14();
  std::vector<RawTrajectory> four(sparse_world.corpus.begin() + 200,
                                  sparse_world.corpus.begin() + 204);
  Model sparse = Train(sparse_world, four);
  EXPECT_GT(CheckBatch(sparse, FirstTrips(sparse_world, 40)), 200u);
}

}  // namespace
}  // namespace stmaker
