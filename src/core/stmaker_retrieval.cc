// Similarity and region retrieval over the historical corpus (DESIGN.md
// §16): the index-accelerated paths and their full-scan fallbacks. Both
// paths implement the same retrieval semantics — "related" means sharing a
// grid cell or landmark label, scores are the Eq. 3 weighted cosine of the
// feature fingerprints, region membership is exact sample containment — so
// dropping the index (or failing to load one) changes latency, never
// results. tests/index_test.cc pins the equality against a brute-force
// oracle.

#include <algorithm>

#include "common/strings.h"
#include "core/similarity.h"
#include "core/stmaker.h"

namespace stmaker {

namespace {

/// True when `a` and `b` share at least one grid cell or landmark label —
/// the relatedness filter of the similarity semantics. Both descriptors
/// keep cells (as sorted (cell, bucket) pairs) and labels sorted, so two
/// two-pointer walks suffice.
bool SharesCellOrLabel(const TripDescriptor& a, const TripDescriptor& b) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.cell_buckets.size() && j < b.cell_buckets.size()) {
    const uint64_t ca = a.cell_buckets[i].first;
    const uint64_t cb = b.cell_buckets[j].first;
    if (ca == cb) return true;
    if (ca < cb) {
      ++i;
    } else {
      ++j;
    }
  }
  i = 0;
  j = 0;
  while (i < a.labels.size() && j < b.labels.size()) {
    if (a.labels[i] == b.labels[j]) return true;
    if (a.labels[i] < b.labels[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

}  // namespace

Result<TripDescriptor> STMaker::DescribeTrip(const RawTrajectory& raw,
                                             const RequestContext* ctx) const {
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  STMAKER_ASSIGN_OR_RETURN(RawTrajectory sanitized,
                           SanitizeTrajectory(raw, options_.sanitize));
  TripDescriptor descriptor = TrajectoryIndex::DescribeSpatial(
      TripDescriptor::kNoTrip, sanitized, options_.index);
  STMAKER_ASSIGN_OR_RETURN(CalibratedTrajectory calibrated,
                           calibrator_.Calibrate(sanitized, ctx));
  STMAKER_ASSIGN_OR_RETURN(std::vector<SegmentFeatures> features,
                           extractor_->Extract(calibrated, ctx));
  TrajectoryIndex::FinishDescriptor(calibrated.symbolic,
                                    NormalizeSegmentFeatures(features),
                                    registry_.size(), &descriptor);
  return descriptor;
}

Result<std::vector<TrajectoryIndex::Match>> STMaker::SimilarTrips(
    std::span<const RawTrajectory> corpus, size_t trip, size_t k,
    const RequestContext* ctx) const {
  if (analyzer_ == nullptr) {
    return Status::FailedPrecondition("SimilarTrips requires a trained model");
  }
  if (trip >= corpus.size()) {
    return Status::OutOfRange(StrFormat(
        "trip %zu out of range (corpus has %zu)", trip, corpus.size()));
  }
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  const std::vector<double> weights = registry_.Weights();

  // An index whose descriptor count disagrees with the serving corpus was
  // built over different trajectories (a caller passing another corpus
  // than the model's); its trip ids would name the wrong trips. Treat it
  // as absent — the scan keeps the identical-results contract.
  if (trip_index_ != nullptr &&
      trip_index_->descriptors().size() == corpus.size()) {
    const std::vector<TripDescriptor>& descriptors =
        trip_index_->descriptors();
    if (!descriptors[trip].scored) {
      return Status::FailedPrecondition(StrFormat(
          "trip %zu has no index fingerprint (quarantined during training)",
          trip));
    }
    return trip_index_->SimilarTopK(descriptors[trip], k, weights, ctx);
  }

  // Scan fallback: rebuild every trip's descriptor through the ingest
  // pipeline and apply the same filter + re-rank. Trips the pipeline
  // rejects are outside the retrieval domain — exactly the trips the
  // index never admitted.
  Result<TripDescriptor> query = DescribeTrip(corpus[trip], ctx);
  if (!query.ok()) {
    if (IsContextError(query.status().code())) return query.status();
    return Status::FailedPrecondition(
        StrFormat("trip %zu is not retrievable: %s", trip,
                  query.status().message().c_str()));
  }
  query->trip = static_cast<uint32_t>(trip);
  std::vector<TrajectoryIndex::Match> scored;
  for (size_t t = 0; t < corpus.size(); ++t) {
    if (t == trip) continue;
    Result<TripDescriptor> candidate = DescribeTrip(corpus[t], ctx);
    if (!candidate.ok()) {
      if (IsContextError(candidate.status().code())) {
        return candidate.status();
      }
      continue;
    }
    if (!SharesCellOrLabel(*query, *candidate)) continue;
    scored.push_back(TrajectoryIndex::Match{
        static_cast<uint32_t>(t),
        SegmentSimilarity(query->fingerprint, candidate->fingerprint,
                          weights)});
  }
  std::sort(scored.begin(), scored.end(),
            [](const TrajectoryIndex::Match& a,
               const TrajectoryIndex::Match& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.trip < b.trip;
            });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

bool STMaker::TripInRegion(
    const RawTrajectory& raw, const BoundingBox& box,
    const std::optional<std::pair<double, double>>& window) const {
  Result<RawTrajectory> sanitized =
      SanitizeTrajectory(raw, options_.sanitize);
  if (!sanitized.ok()) return false;
  for (const RawSample& s : sanitized->samples) {
    if (!box.Contains(s.pos)) continue;
    if (window.has_value() &&
        (s.time < window->first || s.time > window->second)) {
      continue;
    }
    return true;
  }
  return false;
}

Result<std::vector<uint32_t>> STMaker::QueryRegion(
    std::span<const RawTrajectory> corpus, const BoundingBox& box,
    const std::optional<std::pair<double, double>>& window,
    const RequestContext* ctx) const {
  if (analyzer_ == nullptr) {
    return Status::FailedPrecondition("QueryRegion requires a trained model");
  }
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  std::vector<uint32_t> out;
  // The refine is linear in a trip's samples, so the context is consulted
  // every few trips rather than every 256.
  CancelCheck check(ctx, /*stride=*/16);
  // Same stale-index guard as SimilarTrips: a descriptor count that
  // disagrees with the serving corpus means the index describes other
  // trips, and trusting it would silently drop or invent results. The
  // scan path preserves the identical-results contract instead.
  if (trip_index_ != nullptr &&
      trip_index_->descriptors().size() == corpus.size()) {
    STMAKER_ASSIGN_OR_RETURN(
        const std::vector<uint32_t> candidates,
        trip_index_->RegionCandidates(
            box, window.has_value(), window.has_value() ? window->first : 0,
            window.has_value() ? window->second : 0, ctx));
    for (uint32_t t : candidates) {
      STMAKER_RETURN_IF_ERROR(check.Tick());
      if (TripInRegion(corpus[t], box, window)) {
        out.push_back(t);
      }
    }
    return out;
  }
  for (size_t t = 0; t < corpus.size(); ++t) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    if (TripInRegion(corpus[t], box, window)) {
      out.push_back(static_cast<uint32_t>(t));
    }
  }
  return out;
}

}  // namespace stmaker
