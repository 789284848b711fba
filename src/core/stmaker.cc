#include "core/stmaker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/similarity.h"
#include "core/votes.h"
#include "landmark/significance.h"
#include "text/phrases.h"
#include "text/template_engine.h"

namespace stmaker {

STMaker::STMaker(const RoadNetwork* network, LandmarkIndex* landmarks,
                 FeatureRegistry registry, const STMakerOptions& options)
    : network_(network),
      landmarks_(landmarks),
      registry_(std::move(registry)),
      options_(options),
      calibrator_(landmarks, options.calibration),
      miner_(std::make_unique<const PopularRouteMiner>()),
      road_router_(network) {
  STMAKER_CHECK(network != nullptr);
  STMAKER_CHECK(landmarks != nullptr);
  extractor_ = std::make_unique<FeatureExtractor>(
      network_, landmarks_, &registry_, options_.extraction);
}

Status STMaker::BuildRoadHierarchy() {
  STMAKER_ASSIGN_OR_RETURN(ContractionHierarchy ch,
                           ContractionHierarchy::Build(*network_));
  road_hierarchy_ = std::make_unique<ContractionHierarchy>(std::move(ch));
  road_router_.AttachHierarchy(road_hierarchy_.get());
  return Status::OK();
}

Result<Path> STMaker::RoadRoute(NodeId src, NodeId dst,
                                const RequestContext* ctx) const {
  return road_router_.Route(src, dst, nullptr, ctx);
}

Result<CalibratedTrajectory> STMaker::Calibrate(
    const RawTrajectory& raw, const RequestContext* ctx) const {
  return calibrator_.Calibrate(raw, ctx);
}

void IngestReport::Merge(const IngestReport& other) {
  total += other.total;
  ingested += other.ingested;
  quarantined += other.quarantined;
  sanitize_rejected += other.sanitize_rejected;
  calibration_failed += other.calibration_failed;
  extraction_failed += other.extraction_failed;
  failpoint_injected += other.failpoint_injected;
  repaired += other.repaired;
  dropped_points += other.dropped_points;
}

std::string IngestReport::ToString() const {
  std::string out = StrFormat("%zu/%zu ingested", ingested, total);
  if (quarantined > 0) {
    std::vector<std::string> reasons;
    if (sanitize_rejected > 0) {
      reasons.push_back(StrFormat("sanitize: %zu", sanitize_rejected));
    }
    if (calibration_failed > 0) {
      reasons.push_back(StrFormat("calibration: %zu", calibration_failed));
    }
    if (extraction_failed > 0) {
      reasons.push_back(StrFormat("extraction: %zu", extraction_failed));
    }
    if (failpoint_injected > 0) {
      reasons.push_back(StrFormat("failpoint: %zu", failpoint_injected));
    }
    out += StrFormat(", %zu quarantined (%s)", quarantined,
                     Join(reasons, ", ").c_str());
  }
  if (repaired > 0) {
    out += StrFormat(", %zu repaired (%zu points dropped)", repaired,
                     dropped_points);
  }
  return out;
}

namespace {

/// Private accumulators of one ingestion worker. Shard s sees only the
/// trajectories of index block s; the blocks are merged left to right.
/// Trip descriptors and segment features are not sharded: workers fill
/// disjoint slots of pre-sized vectors, so slot i is trip i at every
/// thread count.
struct IngestShard {
  VisitCorpus visits;
  IngestReport report;
};

}  // namespace

Result<IngestReport> STMaker::IngestCorpus(
    const std::vector<RawTrajectory>& history, VisitCorpus* visits) {
  const int threads = ResolveThreadCount(options_.num_threads);
  std::vector<IngestShard> shards(static_cast<size_t>(threads));
  // One descriptor slot per offered trajectory — quarantined trips keep an
  // empty slot so descriptor index always equals corpus position.
  std::vector<TripDescriptor> descriptors(history.size());
  // Each trip's segment features, folded into the feature map in corpus
  // order after the parallel pass: floating-point sums depend on the
  // order of their terms, so per-shard partial sums would differ from the
  // serial ones in the last ulp.
  std::vector<std::vector<SegmentFeatures>> segments(history.size());

  // The shard body is exactly the serial per-trajectory ingest, writing to
  // the shard's private accumulators. The calibrator and extractor are
  // shared but thread-safe (const pipelines; the calibration cache locks).
  // Unusable trajectories are quarantined into the shard report instead of
  // failing the batch; one poisoned trip never takes the corpus down.
  ParallelFor(history.size(), threads,
              [&](size_t begin, size_t end, int shard_index) {
                IngestShard& shard = shards[static_cast<size_t>(shard_index)];
                IngestReport& report = shard.report;
                for (size_t i = begin; i < end; ++i) {
                  ++report.total;
                  bool injected = false;
                  STMAKER_FAILPOINT("train/shard", injected = true);
                  if (injected) {
                    ++report.quarantined;
                    ++report.failpoint_injected;
                    continue;
                  }
                  SanitizeReport sanitize_report;
                  Result<RawTrajectory> sanitized = SanitizeTrajectory(
                      history[i], options_.sanitize, &sanitize_report);
                  if (!sanitized.ok()) {
                    ++report.quarantined;
                    ++report.sanitize_rejected;
                    continue;
                  }
                  if (!sanitize_report.clean()) {
                    ++report.repaired;
                    report.dropped_points += sanitize_report.dropped_points;
                  }
                  const RawTrajectory& raw = *sanitized;
                  // The spatial half of the trip's index descriptor exists
                  // as soon as sanitization passed — region retrieval
                  // covers trips the scoring pipeline later rejects.
                  descriptors[i] = TrajectoryIndex::DescribeSpatial(
                      static_cast<uint32_t>(i), raw, options_.index);
                  Result<CalibratedTrajectory> calibrated =
                      calibrator_.Calibrate(raw);
                  if (!calibrated.ok()) {
                    ++report.quarantined;
                    ++report.calibration_failed;
                    continue;
                  }
                  Result<std::vector<SegmentFeatures>> features =
                      extractor_->Extract(*calibrated);
                  if (!features.ok()) {
                    ++report.quarantined;
                    ++report.extraction_failed;
                    continue;
                  }

                  const SymbolicTrajectory& symbolic = calibrated->symbolic;
                  // Complete the descriptor: landmark labels, the symbolic
                  // sequence (popular-route mining replays transitions from
                  // it after the merge), and the Eq. 3 fingerprint.
                  TrajectoryIndex::FinishDescriptor(
                      symbolic, NormalizeSegmentFeatures(*features),
                      registry_.size(), &descriptors[i]);
                  segments[i] = std::move(*features);
                  // Record visits for HITS significance. Anonymous
                  // trajectories get a fresh traveller record so they still
                  // contribute hub mass without conflating distinct
                  // vehicles.
                  shard.visits.AddTrajectory(raw.traveler,
                                             descriptors[i].sequence);
                  ++report.ingested;
                }
              });

  // Decide acceptance from the merged counts before building the model.
  IngestReport report;
  for (const IngestShard& shard : shards) report.Merge(shard.report);
  if (report.total > 0 &&
      report.QuarantineFraction() > options_.max_quarantine_fraction) {
    return Status::FailedPrecondition(StrFormat(
        "quarantined %zu of %zu trajectories (%.0f%%), over the configured "
        "limit of %.0f%% — corpus looks corrupt (%s)",
        report.quarantined, report.total,
        100.0 * report.QuarantineFraction(),
        100.0 * options_.max_quarantine_fraction,
        report.ToString().c_str()));
  }

  // Merge in block order: shard 0 holds the leftmost trajectories, so this
  // replays the corpus left to right exactly as the serial loop would.
  for (const IngestShard& shard : shards) visits->Merge(shard.visits);
  // One transition and one feature-map record per corpus segment, in
  // corpus order: the miner and the map sum them exactly as they sum the
  // records of a container load.
  std::vector<PopularRouteMiner::Transition> transitions;
  std::vector<HistoricalFeatureMap::EdgeRecord> edges;
  for (size_t i = 0; i < history.size(); ++i) {
    const std::vector<LandmarkId>& sequence = descriptors[i].sequence;
    for (size_t s = 0; s + 1 < sequence.size(); ++s) {
      transitions.push_back({sequence[s], sequence[s + 1], 1.0});
      edges.push_back({sequence[s], sequence[s + 1],
                       std::move(segments[i][s].values), 1.0});
    }
  }
  miner_ = std::make_unique<const PopularRouteMiner>(transitions);
  feature_map_ =
      std::make_unique<HistoricalFeatureMap>(registry_.size(), edges);
  BuildTrajectoryIndex(std::move(descriptors));
  num_trained_ = report.ingested;
  // One registry update per corpus from the merged report (not per shard),
  // so the counters are deterministic at every thread count.
  {
    MetricsRegistry& r = MetricsRegistry::Global();
    static Counter& offered = r.counter("stmaker.train.offered");
    static Counter& ingested = r.counter("stmaker.train.ingested");
    static Counter& quarantined = r.counter("stmaker.train.quarantined");
    static Counter& repaired = r.counter("stmaker.train.repaired");
    offered.Increment(report.total);
    ingested.Increment(report.ingested);
    quarantined.Increment(report.quarantined);
    repaired.Increment(report.repaired);
  }
  return report;
}

void STMaker::BuildTrajectoryIndex(std::vector<TripDescriptor> descriptors) {
  // The slots of trips quarantined before sanitization passed hold no id.
  for (size_t i = 0; i < descriptors.size(); ++i) {
    descriptors[i].trip = static_cast<uint32_t>(i);
  }
  Result<TrajectoryIndex> built =
      TrajectoryIndex::Build(options_.index, std::move(descriptors));
  if (!built.ok()) {
    // Advisory, like the routing hierarchy: the model is intact, only the
    // accelerator is lost — queries degrade to the (identical-result)
    // corpus scan.
    static Counter& build_failures =
        MetricsRegistry::Global().counter("index.build_failures");
    build_failures.Increment();
    std::fprintf(stderr,
                 "warning: trajectory index unusable, similarity/region "
                 "queries fall back to corpus scan: %s\n",
                 built.status().ToString().c_str());
    return;
  }
  trip_index_ = std::make_unique<TrajectoryIndex>(std::move(built).value());
}

Result<IngestReport> STMaker::TrainWithReport(
    const std::vector<RawTrajectory>& history) {
  analyzer_.reset();
  feature_map_.reset();
  miner_ = std::make_unique<const PopularRouteMiner>();
  num_trained_ = 0;
  trip_index_.reset();

  // The visit corpus feeds HITS and is dropped: nothing after training
  // reads it, so the model keeps only the scores it installs.
  VisitCorpus visits;
  Result<IngestReport> report = IngestCorpus(history, &visits);
  if (!report.ok()) return report.status();
  if (num_trained_ < 2) {
    feature_map_.reset();
    return Status::FailedPrecondition(
        "training corpus yielded fewer than two calibrated trajectories (" +
        report->ToString() + ")");
  }
  const std::vector<double> significance =
      visits.Significance(landmarks_->size());
  for (size_t i = 0; i < significance.size(); ++i) {
    landmarks_->SetSignificance(static_cast<LandmarkId>(i), significance[i]);
  }
  // Thinning breaks exact distance ties by significance, so calibrations
  // memoized under the old scores (the ingest just ran through the cache)
  // may keep the other anchor: start from an empty cache.
  calibrator_ = Calibrator(landmarks_, options_.calibration);
  analyzer_ = std::make_unique<IrregularityAnalyzer>(
      &registry_, miner_.get(), feature_map_.get());
  return report;
}

Status STMaker::Train(const std::vector<RawTrajectory>& history) {
  return TrainWithReport(history).status();
}

namespace {

/// The per-stage latency histograms of the serving pipeline (one per
/// Fig. 12 stage) plus request counters, registered once. Kept in one
/// struct so Summarize touches a single cached reference set.
struct ServeMetrics {
  Counter& requests;
  Counter& ok;
  Counter& errors;
  Histogram& total_ms;
  Histogram& sanitize_ms;
  Histogram& calibrate_ms;
  Histogram& extract_ms;
  Histogram& partition_ms;
  Histogram& select_ms;
  Histogram& generate_ms;

  static ServeMetrics& Get() {
    static ServeMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return new ServeMetrics{r.counter("stmaker.summarize.requests"),
                              r.counter("stmaker.summarize.ok"),
                              r.counter("stmaker.summarize.errors"),
                              r.histogram("stmaker.stage.total_ms"),
                              r.histogram("stmaker.stage.sanitize_ms"),
                              r.histogram("stmaker.stage.calibrate_ms"),
                              r.histogram("stmaker.stage.extract_ms"),
                              r.histogram("stmaker.stage.partition_ms"),
                              r.histogram("stmaker.stage.select_ms"),
                              r.histogram("stmaker.stage.generate_ms")};
    }();
    return *m;
  }
};

RoadGrade GradeFromAverage(double avg) {
  int g = static_cast<int>(std::lround(avg));
  g = std::clamp(g, 1, 7);
  return static_cast<RoadGrade>(g);
}

TrafficDirection DirectionFromAverage(double avg) {
  return avg >= 1.5 ? TrafficDirection::kOneWay : TrafficDirection::kTwoWay;
}

}  // namespace

Result<Summary> STMaker::Summarize(const RawTrajectory& raw,
                                   const SummaryOptions& options,
                                   const RequestContext* ctx) const {
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.requests.Increment();
  ScopedSpan root_span(TraceOf(ctx), "summarize", &metrics.total_ms);
  Result<Summary> result = SummarizeStages(raw, options, ctx);
  (result.ok() ? metrics.ok : metrics.errors).Increment();
  return result;
}

Result<Summary> STMaker::SummarizeStages(const RawTrajectory& raw,
                                         const SummaryOptions& options,
                                         const RequestContext* ctx) const {
  ServeMetrics& metrics = ServeMetrics::Get();
  if (analyzer_ == nullptr) {
    return Status::FailedPrecondition("STMaker::Train must run first");
  }
  if (!(options.eta >= 0)) {  // also rejects NaN
    return Status::InvalidArgument("eta must be non-negative");
  }
  // An already-expired request fails here, before any work, so
  // tiny inputs behave exactly like large ones (rule 1 in common/context.h).
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));

  // Step 0: sanitize the input. kRepair mends defective fixes so one NaN
  // or GPS teleport degrades the trip instead of poisoning the summary;
  // clean inputs pass through bit-identical (same calibration cache key).
  Result<RawTrajectory> sanitize_result = [&] {
    ScopedSpan span(TraceOf(ctx), "sanitize", &metrics.sanitize_ms);
    return SanitizeTrajectory(raw, options_.sanitize);
  }();
  STMAKER_ASSIGN_OR_RETURN(RawTrajectory sanitized,
                           std::move(sanitize_result));

  // Step 1: rewrite into a symbolic trajectory.
  Result<CalibratedTrajectory> calibrate_result = [&] {
    ScopedSpan span(TraceOf(ctx), "calibrate", &metrics.calibrate_ms);
    return calibrator_.Calibrate(sanitized, ctx);
  }();
  STMAKER_ASSIGN_OR_RETURN(CalibratedTrajectory calibrated,
                           std::move(calibrate_result));
  const size_t num_segments = calibrated.NumSegments();
  STMAKER_CHECK(num_segments >= 1);

  // Step 2: features per segment, normalized over this trajectory.
  Result<std::vector<SegmentFeatures>> extract_result = [&] {
    ScopedSpan span(TraceOf(ctx), "extract", &metrics.extract_ms);
    return extractor_->Extract(calibrated, ctx);
  }();
  STMAKER_ASSIGN_OR_RETURN(std::vector<SegmentFeatures> features,
                           std::move(extract_result));
  // The summary owns the symbolic trajectory from here on.
  Summary summary;
  summary.symbolic = std::move(calibrated.symbolic);
  const SymbolicTrajectory& symbolic = summary.symbolic;
  std::vector<std::vector<double>> normalized =
      NormalizeSegmentFeatures(features);
  std::vector<double> weights = registry_.Weights();

  // Step 3: partition (CRF MAP via DP).
  Result<PartitionResult> partition_result = [&]() -> Result<PartitionResult> {
    ScopedSpan span(TraceOf(ctx), "partition", &metrics.partition_ms);
    std::vector<double> similarities;
    std::vector<double> significance;
    for (size_t i = 0; i + 1 < num_segments; ++i) {
      similarities.push_back(
          SegmentSimilarity(normalized[i], normalized[i + 1], weights));
      significance.push_back(
          landmarks_->landmark(symbolic.samples[i + 1].landmark).significance);
    }
    PartitionOptions popt;
    popt.ca = options.ca;
    popt.k = std::min<int>(options.k, static_cast<int>(num_segments));
    return partitioner_.Partition(similarities, significance, popt, ctx);
  }();
  STMAKER_ASSIGN_OR_RETURN(PartitionResult partition,
                           std::move(partition_result));

  // Steps 4+5: per-partition feature selection and phrase construction.
  std::vector<std::string> sentences;
  for (size_t p = 0; p < partition.partitions.size(); ++p) {
    STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
    // Step 4: irregularity scoring + feature selection for this partition.
    // (One span per partition; the histogram collects per-partition
    // samples, which is what sizing a partition budget needs.)
    std::optional<ScopedSpan> select_span;
    select_span.emplace(TraceOf(ctx), "select", &metrics.select_ms);
    auto [begin, end] = partition.partitions[p];
    PartitionSummary ps;
    ps.seg_begin = begin;
    ps.seg_end = end;
    ps.source = symbolic.samples[begin].landmark;
    ps.destination = symbolic.samples[end].landmark;
    ps.source_name = landmarks_->landmark(ps.source).name;
    ps.destination_name = landmarks_->landmark(ps.destination).name;
    PartitionComparison history =
        analyzer_->IrregularRates(symbolic, features, begin, end, ctx);
    // IrregularRates cannot propagate a context abort from its internal
    // popular-route lookup (it returns no status). An expired deadline
    // stays expired, so re-checking here always catches such an abort before
    // degraded rates can shape a returned summary (see irregularity.h).
    STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
    ps.irregular_rates = std::move(history.rates);
    // Record baseline provenance only when serving degraded — the common
    // fully-trained case keeps the summary struct (and its JSON) unchanged.
    if (std::find(history.baselines.begin(), history.baselines.end(),
                  BaselineStatus::kNoBaseline) != history.baselines.end()) {
      ps.baselines = std::move(history.baselines);
    }

    // Partition-level aggregates used by the phrases.
    double total_len = 0;
    double total_dur = 0;
    double width_sum = 0;
    int stay_count = 0;
    double stay_total_s = 0;
    int uturn_count = 0;
    std::vector<std::string> uturn_places;
    // Length-weighted modes: masses summed in segment order, ties to the
    // smallest value.
    EnumVotes<RoadGrade, 7, double> grade_votes;
    EnumVotes<TrafficDirection, 2, double> direction_votes;
    NameVotes<double> road_votes;
    for (size_t s = begin; s < end; ++s) {
      const SegmentFeatures& sf = features[s];
      total_len += sf.length_m;
      total_dur += sf.duration_s;
      width_sum += sf.mean_width_m * sf.length_m;
      stay_count += sf.num_stays;
      stay_total_s += sf.total_stay_s;
      uturn_count += sf.num_uturns;
      for (const std::string& place : sf.uturn_places) {
        if (std::find(uturn_places.begin(), uturn_places.end(), place) ==
            uturn_places.end()) {
          uturn_places.push_back(place);
        }
      }
      grade_votes.Vote(sf.dominant_grade, sf.length_m);
      direction_votes.Vote(sf.dominant_direction, sf.length_m);
      road_votes.Vote(&sf.dominant_road_name, sf.length_m);
    }
    const RoadGrade modal_grade = grade_votes.Best();
    const TrafficDirection modal_direction = direction_votes.Best();
    const std::string& modal_road = road_votes.Best();
    double mean_width = total_len > 0 ? width_sum / total_len : 0;
    double speed_kmh = total_dur > 0 ? total_len / total_dur * 3.6 : 0;

    // The "usual" values phrases compare against, read from the rows the
    // irregular rates were computed from.
    auto regular_mean = [&](size_t f) {
      double sum = 0;
      for (const HistoricalFeatureMap::Row& row : history.segment_rows) {
        sum += row[f];
      }
      return sum / static_cast<double>(end - begin);
    };
    // Routing-feature phrases compare against what "most drivers" do — the
    // popular route's attributes — not this trip's own edges (whose history
    // would trivially match the trip). Categorical features take the modal
    // value along the popular route; numeric ones the mean. Falls back to
    // the per-segment regulars when the endpoints have no popular route.
    const std::vector<HistoricalFeatureMap::Row>& route = history.route_rows;
    auto routing_regular = [&](size_t f) {
      if (route.empty()) return regular_mean(f);
      if (registry_.def(f).value_type == FeatureValueType::kCategorical) {
        std::map<long, int> votes;
        for (const HistoricalFeatureMap::Row& row : route) {
          votes[std::lround(row[f])]++;
        }
        long best = 0;
        int best_votes = -1;
        for (const auto& [value, n] : votes) {
          if (n > best_votes) {
            best_votes = n;
            best = value;
          }
        }
        return static_cast<double>(best);
      }
      double sum = 0;
      for (const HistoricalFeatureMap::Row& row : route) sum += row[f];
      return sum / static_cast<double>(route.size());
    };

    // Select features whose irregular rate exceeds η, in registry order.
    for (size_t f = 0; f < registry_.size(); ++f) {
      if (ps.irregular_rates[f] <= options.eta) continue;
      const FeatureDef& def = registry_.def(f);
      SelectedFeature sel;
      sel.feature = f;
      sel.irregular_rate = ps.irregular_rates[f];
      switch (f) {
        case kGradeOfRoadFeature: {
          RoadGrade regular = GradeFromAverage(
              routing_regular(kGradeOfRoadFeature));
          // The sequence-level irregularity can exceed η while the modal
          // grades coincide; a "highway while most choose highway" phrase
          // would be vacuous, so only speak when the categories differ.
          if (regular == modal_grade) continue;
          sel.value = static_cast<double>(modal_grade);
          sel.regular = static_cast<double>(regular);
          sel.phrase = GradeOfRoadPhrase(RoadGradeName(modal_grade),
                                         modal_road, RoadGradeName(regular));
          break;
        }
        case kRoadWidthFeature: {
          double regular = routing_regular(kRoadWidthFeature);
          // A "wider/narrower than most" claim needs a perceptible gap.
          if (regular <= 0 ||
              std::fabs(mean_width - regular) / regular < 0.1) {
            continue;
          }
          sel.value = mean_width;
          sel.regular = regular;
          sel.phrase = RoadWidthPhrase(mean_width, regular);
          break;
        }
        case kTrafficDirectionFeature: {
          TrafficDirection regular = DirectionFromAverage(
              routing_regular(kTrafficDirectionFeature));
          if (regular == modal_direction) continue;  // vacuous phrase
          sel.value = static_cast<double>(modal_direction);
          sel.regular = static_cast<double>(regular);
          sel.phrase = TrafficDirectionPhrase(
              TrafficDirectionName(modal_direction),
              TrafficDirectionName(regular));
          break;
        }
        case kSpeedFeature:
          sel.value = speed_kmh;
          sel.regular = regular_mean(kSpeedFeature);
          sel.phrase = SpeedPhrase(speed_kmh, sel.regular);
          break;
        case kStayPointsFeature:
          if (stay_count == 0) continue;  // nothing concrete to report
          sel.value = stay_count;
          sel.regular = regular_mean(kStayPointsFeature);
          sel.phrase = StayPointsPhrase(stay_count, stay_total_s);
          break;
        case kUTurnsFeature:
          if (uturn_count == 0) continue;
          sel.value = uturn_count;
          sel.regular = regular_mean(kUTurnsFeature);
          sel.phrase = UTurnsPhrase(uturn_count, uturn_places);
          break;
        default: {
          // User-registered feature: mean value vs. regular mean through its
          // phrase template (or a generic one).
          double value = 0;
          for (size_t s = begin; s < end; ++s) value += features[s].values[f];
          value /= static_cast<double>(end - begin);
          sel.value = value;
          sel.regular = regular_mean(f);
          TemplateValues tv{{"value", FormatNumber(value, 1)},
                            {"regular", FormatNumber(sel.regular, 1)}};
          const std::string tmpl =
              def.phrase_template.empty()
                  ? "with " + def.display_name +
                        " of {value} while {regular} is usual"
                  : def.phrase_template;
          Result<std::string> rendered = RenderTemplate(tmpl, tv);
          if (!rendered.ok()) return rendered.status();
          sel.phrase = std::move(rendered).value();
        }
      }
      ps.selected.push_back(std::move(sel));
    }

    select_span.reset();

    // Step 5: Table VI sentence. The road type is mentioned unless the
    // grade phrase already covers it.
    ScopedSpan generate_span(TraceOf(ctx), "generate", &metrics.generate_ms);
    std::vector<std::string> phrases;
    for (const SelectedFeature& sel : ps.selected) {
      phrases.push_back(sel.phrase);
    }
    std::string road_type = ps.ContainsFeature(kGradeOfRoadFeature)
                                ? ""
                                : RoadGradeName(modal_grade);
    ps.sentence = PartitionSentence(p == 0, ps.source_name,
                                    ps.destination_name, road_type, phrases);
    sentences.push_back(ps.sentence);
    summary.partitions.push_back(std::move(ps));
  }

  summary.text = Join(sentences, " ");
  // Final boundary check: a request that expired during the last partition
  // reports the deadline instead of sneaking a summary out just past it.
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  return summary;
}

std::vector<Result<Summary>> STMaker::SummarizeBatch(
    std::span<const RawTrajectory> raws, const SummaryOptions& options,
    int num_threads) const {
  const int threads = ResolveThreadCount(
      num_threads > 0 ? num_threads : options_.num_threads);
  // Result<Summary> has no default state, so workers fill optionals by
  // index and the unwrap below restores the plain vector. Each item is
  // summarized independently through the const (thread-safe) serving path,
  // so element i is bit-identical to a lone Summarize(raws[i], options)
  // call at any thread count.
  std::vector<std::optional<Result<Summary>>> slots(raws.size());
  ParallelFor(raws.size(), threads,
              [&](size_t begin, size_t end, int /*shard*/) {
                for (size_t i = begin; i < end; ++i) {
                  slots[i].emplace(Summarize(raws[i], options));
                }
              });
  std::vector<Result<Summary>> out;
  out.reserve(raws.size());
  for (std::optional<Result<Summary>>& slot : slots) {
    STMAKER_CHECK(slot.has_value());
    out.push_back(std::move(*slot));
  }
  return out;
}

}  // namespace stmaker
