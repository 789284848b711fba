#ifndef STMAKER_LANDMARK_LANDMARK_H_
#define STMAKER_LANDMARK_LANDMARK_H_

/// \file
/// The Landmark record: position, name, significance score.

#include <cstdint>
#include <string>

#include "geo/vec2.h"

namespace stmaker {

using LandmarkId = int64_t;

/// Where a landmark came from (Def. 2: a POI or a turning point of the road
/// network).
enum class LandmarkKind {
  kPoi,
  kTurningPoint,
};

/// A stable, trajectory-independent geographical anchor (Def. 2). The
/// significance field (l.s in the paper) is filled in by training (HITS
/// over the visit corpus, VisitCorpus::Significance) and drives partition
/// boundaries.
struct Landmark {
  LandmarkId id = -1;
  Vec2 pos;
  std::string name;
  LandmarkKind kind = LandmarkKind::kPoi;
  double significance = 0;
};

}  // namespace stmaker

#endif  // STMAKER_LANDMARK_LANDMARK_H_
