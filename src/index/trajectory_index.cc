#include "index/trajectory_index.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/failpoint.h"
#include "core/similarity.h"

namespace stmaker {

namespace {

/// Floor of value/width as a grid index. Coordinates reach this off the
/// wire (bbox corners, window endpoints), so the double→int64 cast
/// saturates instead of hitting UB on huge quotients; NaN maps to cell 0.
/// Request handlers reject non-finite fields before indexing — the
/// saturation here is defense in depth, and keeps finite-but-astronomical
/// values ("1e300") well-defined: they land in the extreme cells, which
/// contain no postings.
int64_t FloorDiv(double value, double width) {
  const double q = std::floor(value / width);
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact in double
  if (std::isnan(q)) return 0;
  if (q >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (q < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(q);
}

}  // namespace

uint64_t TrajectoryIndex::CellKey(const Vec2& p, double cell_m) {
  const int64_t cx = FloorDiv(p.x, cell_m);
  const int64_t cy = FloorDiv(p.y, cell_m);
  return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(cy));
}

int64_t TrajectoryIndex::BucketOf(double time, double bucket_s) {
  return FloorDiv(time, bucket_s);
}

TripDescriptor TrajectoryIndex::DescribeSpatial(
    uint32_t trip, const RawTrajectory& sanitized,
    const TrajectoryIndexOptions& options) {
  TripDescriptor d;
  d.trip = trip;
  if (sanitized.samples.empty()) return d;
  d.spatial = true;
  d.t_begin = sanitized.samples.front().time;
  d.t_end = sanitized.samples.back().time;
  d.cell_buckets.reserve(sanitized.samples.size());
  for (const RawSample& s : sanitized.samples) {
    d.bbox.Extend(s.pos);
    d.cell_buckets.emplace_back(CellKey(s.pos, options.cell_m),
                                BucketOf(s.time, options.bucket_s));
  }
  std::sort(d.cell_buckets.begin(), d.cell_buckets.end());
  d.cell_buckets.erase(
      std::unique(d.cell_buckets.begin(), d.cell_buckets.end()),
      d.cell_buckets.end());
  return d;
}

void TrajectoryIndex::FinishDescriptor(
    const SymbolicTrajectory& symbolic,
    const std::vector<std::vector<double>>& normalized, size_t num_features,
    TripDescriptor* descriptor) {
  descriptor->sequence.clear();
  descriptor->sequence.reserve(symbolic.samples.size());
  for (const SymbolicSample& s : symbolic.samples) {
    descriptor->sequence.push_back(s.landmark);
  }
  descriptor->labels = descriptor->sequence;
  std::sort(descriptor->labels.begin(), descriptor->labels.end());
  descriptor->labels.erase(
      std::unique(descriptor->labels.begin(), descriptor->labels.end()),
      descriptor->labels.end());
  descriptor->fingerprint.assign(num_features, 0.0);
  if (!normalized.empty()) {
    for (const std::vector<double>& v : normalized) {
      STMAKER_CHECK(v.size() == num_features);
      for (size_t f = 0; f < num_features; ++f) {
        descriptor->fingerprint[f] += v[f];
      }
    }
    for (size_t f = 0; f < num_features; ++f) {
      descriptor->fingerprint[f] /= static_cast<double>(normalized.size());
    }
  }
  descriptor->scored = true;
}

Result<TrajectoryIndex> TrajectoryIndex::Build(
    const TrajectoryIndexOptions& options,
    std::vector<TripDescriptor> descriptors) {
  if (options.cell_m <= 0 || options.bucket_s <= 0) {
    return Status::InvalidArgument(
        "trajectory index needs positive cell_m and bucket_s");
  }
  STMAKER_FAILPOINT("index/build", return Status::Internal(
                                       "index build failed (injected)"));
  TrajectoryIndex index;
  index.options_ = options;
  index.descriptors_ = std::move(descriptors);
  // One pass in ascending trip order: every posting list comes out sorted
  // by trip id with no per-list sort, and the build is deterministic at
  // every thread count (descriptors were filled into disjoint slots).
  for (size_t i = 0; i < index.descriptors_.size(); ++i) {
    TripDescriptor& d = index.descriptors_[i];
    STMAKER_CHECK(d.trip == static_cast<uint32_t>(i));
    if (!d.spatial) continue;
    const uint32_t trip = d.trip;
    uint64_t last_cell = 0;
    bool have_last = false;
    for (const auto& [cell, bucket] : d.cell_buckets) {
      index.cell_bucket_postings_[{cell, bucket}].push_back(trip);
      ++index.num_postings_;
      // cell_buckets is sorted by (cell, bucket), so distinct cells arrive
      // as runs — the previous-cell check dedups the (cell, *, *) family.
      if (!have_last || cell != last_cell) {
        index.cell_postings_[cell].push_back(trip);
        ++index.num_postings_;
        last_cell = cell;
        have_last = true;
      }
    }
    if (!d.scored) continue;
    for (LandmarkId label : d.labels) {
      index.label_postings_[label].push_back(trip);
      ++index.num_postings_;
    }
  }
  return index;
}

std::vector<uint32_t> TrajectoryIndex::SimilarCandidates(
    const TripDescriptor& query) const {
  std::vector<char> marked(descriptors_.size(), 0);
  auto mark = [&](const std::vector<uint32_t>& postings) {
    for (uint32_t trip : postings) marked[trip] = 1;
  };
  uint64_t last_cell = 0;
  bool have_last = false;
  for (const auto& [cell, bucket] : query.cell_buckets) {
    (void)bucket;
    if (have_last && cell == last_cell) continue;
    last_cell = cell;
    have_last = true;
    auto it = cell_postings_.find(cell);
    if (it != cell_postings_.end()) mark(it->second);
  }
  for (LandmarkId label : query.labels) {
    auto it = label_postings_.find(label);
    if (it != label_postings_.end()) mark(it->second);
  }
  std::vector<uint32_t> out;
  for (size_t t = 0; t < marked.size(); ++t) {
    if (!marked[t]) continue;
    if (static_cast<uint32_t>(t) == query.trip) continue;
    // Cell postings also hold spatial-but-unscored trips, which have no
    // fingerprint to rank; the similarity domain is the scored corpus.
    if (!descriptors_[t].scored) continue;
    out.push_back(static_cast<uint32_t>(t));
  }
  return out;
}

Result<std::vector<TrajectoryIndex::Match>> TrajectoryIndex::SimilarTopK(
    const TripDescriptor& query, size_t k, const std::vector<double>& weights,
    const RequestContext* ctx) const {
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  std::vector<Match> scored;
  CancelCheck check(ctx);
  for (uint32_t trip : SimilarCandidates(query)) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    scored.push_back(Match{
        trip, SegmentSimilarity(query.fingerprint,
                                descriptors_[trip].fingerprint, weights)});
  }
  std::sort(scored.begin(), scored.end(), [](const Match& a, const Match& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.trip < b.trip;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

Result<std::vector<uint32_t>> TrajectoryIndex::RegionCandidates(
    const BoundingBox& box, bool has_window, double t0, double t1,
    const RequestContext* ctx) const {
  std::vector<uint32_t> out;
  if (box.IsEmpty() || (has_window && t1 < t0)) return out;
  const int64_t cx0 = FloorDiv(box.min.x, options_.cell_m);
  const int64_t cx1 = FloorDiv(box.max.x, options_.cell_m);
  const int64_t cy0 = FloorDiv(box.min.y, options_.cell_m);
  const int64_t cy1 = FloorDiv(box.max.y, options_.cell_m);
  int64_t b0 = 0;
  int64_t b1 = -1;
  if (has_window) {
    b0 = BucketOf(t0, options_.bucket_s);
    b1 = BucketOf(t1, options_.bucket_s);
  }
  // Strategy choice is data-dependent only (never thread-dependent): probe
  // the enumerated key range when it is small, otherwise walk the stored
  // postings and filter. Either way the candidate set is a superset of the
  // true results — the caller's exact refine makes the answer identical.
  //
  // The ranges come off the wire, so the probe-count estimate must not
  // trust arithmetic on them: spans are computed in uint64 (a saturated
  // FloorDiv can make cx1 - cx0 overflow int64), and each axis is screened
  // alone before the product — three factors each < 2^16 multiply to
  // < 2^48, so the product itself cannot wrap to a small value and smuggle
  // a ~2^64-iteration enumeration past the guard.
  constexpr uint64_t kMaxProbes = 1u << 16;
  const uint64_t span_x =
      static_cast<uint64_t>(cx1) - static_cast<uint64_t>(cx0);
  const uint64_t span_y =
      static_cast<uint64_t>(cy1) - static_cast<uint64_t>(cy0);
  const uint64_t span_b =
      has_window ? static_cast<uint64_t>(b1) - static_cast<uint64_t>(b0) : 0;
  const bool enumerable =
      span_x < kMaxProbes && span_y < kMaxProbes && span_b < kMaxProbes &&
      (span_x + 1) * (span_y + 1) * (span_b + 1) <= kMaxProbes;
  CancelCheck check(ctx);
  std::vector<char> marked(descriptors_.size(), 0);
  auto mark = [&](const std::vector<uint32_t>& postings) {
    for (uint32_t trip : postings) marked[trip] = 1;
  };
  auto cell_in_range = [&](uint64_t cell) {
    const int64_t cx = static_cast<int32_t>(cell >> 32);
    const int64_t cy = static_cast<int32_t>(cell & 0xffffffffu);
    return cx >= cx0 && cx <= cx1 && cy >= cy0 && cy <= cy1;
  };
  // The enumerable loops count offsets, not cell indices: cx1/b1 may sit
  // at the saturation limit, where `++cx` past them would overflow.
  if (has_window && enumerable) {
    for (uint64_t ix = 0; ix <= span_x; ++ix) {
      const int64_t cx = cx0 + static_cast<int64_t>(ix);
      for (uint64_t iy = 0; iy <= span_y; ++iy) {
        const int64_t cy = cy0 + static_cast<int64_t>(iy);
        const uint64_t cell =
            (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
            static_cast<uint64_t>(static_cast<uint32_t>(cy));
        for (uint64_t ib = 0; ib <= span_b; ++ib) {
          STMAKER_RETURN_IF_ERROR(check.Tick());
          auto it = cell_bucket_postings_.find({cell, b0 + static_cast<int64_t>(ib)});
          if (it != cell_bucket_postings_.end()) mark(it->second);
        }
      }
    }
  } else if (has_window) {
    for (const auto& [key, postings] : cell_bucket_postings_) {
      STMAKER_RETURN_IF_ERROR(check.Tick());
      if (key.second < b0 || key.second > b1) continue;
      if (!cell_in_range(key.first)) continue;
      mark(postings);
    }
  } else if (enumerable) {
    for (uint64_t ix = 0; ix <= span_x; ++ix) {
      const int64_t cx = cx0 + static_cast<int64_t>(ix);
      for (uint64_t iy = 0; iy <= span_y; ++iy) {
        STMAKER_RETURN_IF_ERROR(check.Tick());
        const int64_t cy = cy0 + static_cast<int64_t>(iy);
        const uint64_t cell =
            (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
            static_cast<uint64_t>(static_cast<uint32_t>(cy));
        auto it = cell_postings_.find(cell);
        if (it != cell_postings_.end()) mark(it->second);
      }
    }
  } else {
    for (const auto& [cell, postings] : cell_postings_) {
      STMAKER_RETURN_IF_ERROR(check.Tick());
      if (cell_in_range(cell)) mark(postings);
    }
  }
  for (size_t t = 0; t < marked.size(); ++t) {
    if (marked[t]) out.push_back(static_cast<uint32_t>(t));
  }
  return out;
}

}  // namespace stmaker
