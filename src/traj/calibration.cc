#include "traj/calibration.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/arena.h"
#include "common/check.h"
#include "common/lru_cache.h"
#include "common/metrics.h"
#include "geo/bounding_box.h"
#include "geo/grid_index.h"

namespace stmaker {

namespace {

inline uint64_t MixBits(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// Interpolates the fix time at arc-length position `s` from the per-vertex
/// cumulative lengths of the raw polyline.
double TimeAtArc(const Polyline& geometry, const RawTrajectory& raw,
                 double s) {
  const size_t n = raw.samples.size();
  STMAKER_CHECK(n >= 1);
  if (s <= 0) return raw.samples.front().time;
  if (s >= geometry.Length()) return raw.samples.back().time;
  // Find the first vertex at arc >= s.
  size_t lo = 0;
  size_t hi = n - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (geometry.CumulativeLength(mid) < s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return raw.samples.front().time;
  double a0 = geometry.CumulativeLength(lo - 1);
  double a1 = geometry.CumulativeLength(lo);
  double t0 = raw.samples[lo - 1].time;
  double t1 = raw.samples[lo].time;
  if (a1 <= a0) return t0;
  double t = (s - a0) / (a1 - a0);
  return t0 + t * (t1 - t0);
}

}  // namespace

std::vector<std::pair<size_t, size_t>>
CalibratedTrajectory::SegmentSampleRanges() const {
  const size_t n = raw.samples.size();
  std::vector<std::pair<size_t, size_t>> ranges;
  ranges.reserve(NumSegments());
  // `first` is the last fix at or before the segment's start: the first
  // fix strictly inside it, widened back by one. `reach` is the first fix
  // at or past the segment's end (or the last fix). Both are monotone in
  // the segment's bounds, so each resumes where the previous segment
  // left it instead of rescanning from fix 0.
  size_t first = 0;
  size_t reach = 0;
  for (size_t i = 0; i < NumSegments(); ++i) {
    const double a0 = arc_positions[i];
    const double a1 = arc_positions[i + 1];
    while (first + 1 < n && geometry.CumulativeLength(first + 1) <= a0) {
      ++first;
    }
    while (reach + 1 < n && geometry.CumulativeLength(reach) < a1) {
      ++reach;
    }
    ranges.emplace_back(first, std::max(first, reach) + 1);
  }
  return ranges;
}

std::pair<double, double> CalibratedTrajectory::SegmentTimeSpan(
    size_t i) const {
  STMAKER_CHECK(i < NumSegments());
  return {symbolic.samples[i].time, symbolic.samples[i + 1].time};
}

double CalibratedTrajectory::SegmentLength(size_t i) const {
  STMAKER_CHECK(i < NumSegments());
  return arc_positions[i + 1] - arc_positions[i];
}

/// Memoization table behind Calibrate(). Keys copy the full trajectory and
/// compare content exactly (equal bit hashes and equal doubles), so a hit
/// can only ever replay a result the uncached path would recompute
/// identically. A key carries its content hash, computed once per call:
/// the table's lookups, inserts and evictions rehash no samples.
///
/// The table is sharded by key hash: corpus ingestion calibrates distinct
/// trajectories from many worker threads at once (all misses, by
/// construction), and a single mutex around the whole LRU serialized every
/// worker on the Get-then-Put pair — the dominant serialization point in
/// the train thread sweep. With independent shards, concurrent misses on
/// different trajectories take different locks and proceed in parallel;
/// results are unchanged because memoization is exact-key either way.
struct Calibrator::Cache {
  struct Key {
    explicit Key(const RawTrajectory& raw) : traj(raw), hash(Hash(raw)) {}

    RawTrajectory traj;
    size_t hash;

    bool operator==(const Key& other) const {
      const auto& a = traj.samples;
      const auto& b = other.traj.samples;
      if (hash != other.hash || traj.traveler != other.traj.traveler ||
          a.size() != b.size()) {
        return false;
      }
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].pos.x != b[i].pos.x || a[i].pos.y != b[i].pos.y ||
            a[i].time != b[i].time) {
          return false;
        }
      }
      return true;
    }
  };

  /// Content hash over the traveler and the bit patterns of every fix.
  static size_t Hash(const RawTrajectory& traj) {
    uint64_t h = MixBits(0x51ed270b9f2f4c34ULL,
                         static_cast<uint64_t>(traj.traveler));
    h = MixBits(h, traj.samples.size());
    for (const RawSample& s : traj.samples) {
      h = MixBits(h, std::bit_cast<uint64_t>(s.pos.x));
      h = MixBits(h, std::bit_cast<uint64_t>(s.pos.y));
      h = MixBits(h, std::bit_cast<uint64_t>(s.time));
    }
    return static_cast<size_t>(h);
  }

  struct KeyHash {
    size_t operator()(const Key& key) const { return key.hash; }
  };

  /// Enough shards that an 8-way ingest rarely collides, few enough that a
  /// small cache_size still gives each shard a useful capacity.
  static constexpr size_t kNumShards = 8;

  struct Shard {
    explicit Shard(size_t capacity) : lru(capacity) {}
    std::mutex mu;
    LruCache<Key, Result<CalibratedTrajectory>, KeyHash> lru;
  };

  explicit Cache(size_t capacity) {
    const size_t per_shard =
        std::max<size_t>(1, (capacity + kNumShards - 1) / kNumShards);
    for (size_t i = 0; i < kNumShards; ++i) shards.emplace_back(per_shard);
  }

  Shard& ShardFor(size_t hash) { return shards[hash % kNumShards]; }

  std::deque<Shard> shards;  // deque: Shard holds a mutex, so no moves
};

Calibrator::Calibrator(const LandmarkIndex* landmarks,
                       const CalibrationOptions& options)
    : landmarks_(landmarks), options_(options) {
  STMAKER_CHECK(landmarks != nullptr);
  STMAKER_CHECK(options.anchor_radius_m > 0);
  STMAKER_CHECK(options.scan_step_m > 0);
  if (options.cache_size > 0) {
    cache_ = std::make_unique<Cache>(options.cache_size);
  }
}

Calibrator::~Calibrator() = default;
Calibrator::Calibrator(Calibrator&&) noexcept = default;
Calibrator& Calibrator::operator=(Calibrator&&) noexcept = default;

Result<CalibratedTrajectory> Calibrator::Calibrate(
    const RawTrajectory& raw, const RequestContext* ctx) const {
  // Mirrored into the metrics registry (the LRU's own CacheStats remain
  // the per-instance source of truth; the registry aggregates across
  // instances for the serve-mode snapshot).
  static Counter& cache_hits =
      MetricsRegistry::Global().counter("calibration.cache.hits");
  static Counter& cache_misses =
      MetricsRegistry::Global().counter("calibration.cache.misses");
  if (cache_ == nullptr) return CalibrateUncached(raw, ctx);
  // The content hash is O(samples); computing it once out here keeps the
  // per-shard critical sections down to the map probe itself.
  const Cache::Key key(raw);
  Cache::Shard& shard = cache_->ShardFor(key.hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const Result<CalibratedTrajectory>* hit = shard.lru.Get(key)) {
      cache_hits.Increment();
      return *hit;
    }
  }
  cache_misses.Increment();
  Result<CalibratedTrajectory> result = CalibrateUncached(raw, ctx);
  // Deadline aborts are request-scoped, never a property of the
  // trajectory — memoizing one would make every later call fail too.
  if (!IsContextError(result.status().code())) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.Put(key, result);
  }
  return result;
}

CacheStats Calibrator::Stats() const {
  if (cache_ == nullptr) return CacheStats{};
  CacheStats total;
  for (Cache::Shard& shard : cache_->shards) {
    std::lock_guard<std::mutex> lock(shard.mu);
    CacheStats s = shard.lru.stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
  }
  return total;
}

Result<CalibratedTrajectory> Calibrator::CalibrateUncached(
    const RawTrajectory& raw, const RequestContext* ctx) const {
  STMAKER_RETURN_IF_ERROR(CheckContext(ctx));
  if (raw.samples.size() < 2) {
    return Status::InvalidArgument(
        "calibration requires at least two samples");
  }
  for (size_t i = 1; i < raw.samples.size(); ++i) {
    if (raw.samples[i].time < raw.samples[i - 1].time) {
      return Status::InvalidArgument("timestamps must be non-decreasing");
    }
  }

  CalibratedTrajectory out;
  out.raw = raw;
  std::vector<Vec2> pts;
  pts.reserve(raw.samples.size());
  for (const RawSample& s : raw.samples) pts.push_back(s.pos);
  out.geometry = Polyline(std::move(pts));

  if (out.geometry.Length() <= 0) {
    return Status::NotFound("trajectory has no spatial extent");
  }

  // --- Collect anchors in one pass over the segments. ------------------------
  // A landmark is a candidate when it lies within r of a probe point of the
  // scan_step_m walk; that is what makes calibration sampling-invariant.
  // Its anchor position is its projection onto the whole polyline. Both
  // are decided from the segments whose r-padded boxes contain it: every
  // probe within r of a landmark, and every segment within r of it, lies on
  // such a segment (DESIGN.md §13), so the result is the walk's, bit for
  // bit, without probing the landmark grid at every step.
  const std::vector<Vec2>& vertices = out.geometry.points();
  const size_t num_segments = vertices.size() - 1;
  const double length = out.geometry.Length();
  const double radius = options_.anchor_radius_m;
  const double step = options_.scan_step_m;
  // Landmark and segment indices are packed into one sortable key.
  STMAKER_CHECK(landmarks_->size() <= (uint64_t{1} << 32) &&
                num_segments <= (uint64_t{1} << 32));
  ArenaScope scope(Arena::ThreadLocal());
  CancelCheck check(ctx);

  // The walk records only which segment each probe falls on: i − 1 for the
  // first vertex i past it, the last segment for the final probe (a forward
  // cursor finds the same i as Interpolate's search). One segment's probes
  // are consecutive steps, so its first arc position and count rebuild
  // them; the points are computed only where a landmark needs them.
  struct SegmentScan {
    double first_s = 0;
    size_t probes = 0;
    double reach = 0;  // r plus the rounding pad of the segment's box
  };
  ArenaVector<SegmentScan> segments(
      num_segments, SegmentScan{},
      ArenaAllocator<SegmentScan>(&scope.arena()));
  size_t k = 0;
  for (double s = 0;; s += step) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    const bool last = s >= length;
    if (last) {
      k = num_segments - 1;
    } else {
      while (out.geometry.CumulativeLength(k + 1) <= s) ++k;
    }
    if (segments[k].probes++ == 0) segments[k].first_s = s;
    if (last) break;
  }

  // One landmark box query per segment: [min(a, b) − reach, max(a, b) +
  // reach] on each axis, where reach pads r the way GridIndex pads a radius
  // query. The pad absorbs the rounding of the probe, Distance and
  // PointSegmentDistance arithmetic, so a landmark within r of a probe on
  // the segment, or of any point of it, is inside the box.
  ArenaVector<uint64_t> pairs{ArenaAllocator<uint64_t>(&scope.arena())};
  std::vector<LandmarkId> hits;
  for (size_t seg = 0; seg < num_segments; ++seg) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    const Vec2& a = vertices[seg];
    const Vec2& b = vertices[seg + 1];
    const double reach =
        radius + CellRoundingPad(std::max({std::fabs(a.x), std::fabs(a.y),
                                           std::fabs(b.x), std::fabs(b.y),
                                           radius}));
    segments[seg].reach = reach;
    BoundingBox box;
    box.min = {std::min(a.x, b.x) - reach, std::min(a.y, b.y) - reach};
    box.max = {std::max(a.x, b.x) + reach, std::max(a.y, b.y) + reach};
    hits.clear();
    landmarks_->AppendWithinBox(box, &hits);
    for (LandmarkId id : hits) {
      pairs.push_back((static_cast<uint64_t>(id) << 32) | seg);
    }
  }
  // By landmark, then ascending segment.
  std::sort(pairs.begin(), pairs.end());

  // The walk's membership test, `Distance(landmark, probe) <= r`, over the
  // probes of one segment.
  auto near_probe = [&](const Vec2& pos, size_t seg) {
    double s = segments[seg].first_s;
    for (size_t j = 0; j < segments[seg].probes; ++j, s += step) {
      if (Distance(pos, out.geometry.InterpolateOnSegment(seg, s)) <=
          radius) {
        return true;
      }
    }
    return false;
  };

  struct Anchor {
    LandmarkId id;
    double arc;
    double dist;
    double significance;
  };
  std::vector<Anchor> anchors;
  for (size_t i = 0; i < pairs.size();) {
    STMAKER_RETURN_IF_ERROR(check.Tick());
    const uint64_t id = pairs[i] >> 32;
    const Landmark& lm = landmarks_->landmark(static_cast<LandmarkId>(id));
    // Polyline::Project over the landmark's segments only: every segment
    // within r of it is among them, so an anchor (distance <= r) gets
    // Project's result. A probe within r of it puts its segment within
    // reach, so segments farther than that hold none.
    PolylineProjection best;
    best.distance = -1;
    bool candidate = false;
    for (; i < pairs.size() && (pairs[i] >> 32) == id; ++i) {
      const size_t seg = static_cast<size_t>(pairs[i] & 0xffffffffu);
      const PolylineProjection proj =
          out.geometry.ProjectOntoSegment(lm.pos, seg);
      if (best.distance < 0 || proj.distance < best.distance) best = proj;
      if (!candidate && proj.distance <= segments[seg].reach) {
        candidate = near_probe(lm.pos, seg);
      }
    }
    if (candidate && best.distance <= radius) {
      anchors.push_back({lm.id, best.arc_length, best.distance,
                         lm.significance});
    }
  }
  std::sort(anchors.begin(), anchors.end(),
            [](const Anchor& a, const Anchor& b) {
              if (a.arc != b.arc) return a.arc < b.arc;
              if (a.dist != b.dist) return a.dist < b.dist;
              return a.id < b.id;
            });

  // --- Thin crowded anchors (min spacing). -----------------------------------
  // The first and last anchors are pinned: a trajectory always keeps its
  // origin and destination, however aggressive the spacing. Interior anchors
  // within the spacing window of the previously kept one compete on distance
  // to the route (ties by significance).
  std::vector<Anchor> kept;
  if (!anchors.empty()) kept.push_back(anchors.front());
  for (size_t i = 1; i + 1 < anchors.size(); ++i) {
    const Anchor& a = anchors[i];
    if (a.arc - kept.back().arc < options_.min_spacing_m) {
      if (kept.size() > 1) {  // never displace the pinned origin
        const Anchor& prev = kept.back();
        bool replace = a.dist < prev.dist ||
                       (a.dist == prev.dist &&
                        a.significance > prev.significance);
        if (replace &&
            anchors.back().arc - a.arc >= options_.min_spacing_m) {
          kept.back() = a;
        }
      }
      continue;
    }
    if (anchors.back().arc - a.arc < options_.min_spacing_m) {
      continue;  // would crowd the pinned destination
    }
    kept.push_back(a);
  }
  if (anchors.size() >= 2) kept.push_back(anchors.back());

  if (kept.size() < 2) {
    return Status::NotFound("fewer than two landmark anchors along route");
  }

  // --- Emit symbolic samples with interpolated times. ------------------------
  for (const Anchor& a : kept) {
    SymbolicSample s;
    s.landmark = a.id;
    s.time = TimeAtArc(out.geometry, raw, a.arc);
    out.symbolic.samples.push_back(s);
    out.arc_positions.push_back(a.arc);
  }
  return out;
}

}  // namespace stmaker
