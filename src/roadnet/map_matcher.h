#ifndef STMAKER_ROADNET_MAP_MATCHER_H_
#define STMAKER_ROADNET_MAP_MATCHER_H_

/// \file
/// Viterbi map matching of raw trajectories onto the road graph.

#include <vector>

#include "common/context.h"
#include "common/status.h"
#include "geo/vec2.h"
#include "roadnet/road_network.h"

namespace stmaker {

/// Tuning knobs of the matcher. Defaults suit urban GPS with ~10–20 m noise.
struct MapMatchOptions {
  double candidate_radius_m = 60.0;  ///< Edge search radius per fix.
  int max_candidates = 6;           ///< Candidate edges kept per fix.
  double gps_sigma_m = 15.0;        ///< Emission noise scale.
  double adjacency_cost = 3.0;      ///< Transition to a connected edge.
  double jump_cost = 40.0;          ///< Transition to a disconnected edge.
};

/// \brief Viterbi map matcher (White et al. [36] / Newson–Krumm [24] style,
/// simplified to segment-level states).
///
/// For each GPS fix, candidate edges within the search radius are scored by
/// an emission cost (squared normalized distance) and chained with transition
/// costs favouring staying on the same edge or moving to a topologically
/// connected one. The Viterbi path yields one edge id per fix; fixes with no
/// candidate in range get -1 and break the chain.
class MapMatcher {
 public:
  /// The network must have its spatial index built and must outlive the
  /// matcher.
  explicit MapMatcher(const RoadNetwork* network,
                      const MapMatchOptions& options = MapMatchOptions());

  /// Matches a sequence of projected GPS fixes to edge ids.
  std::vector<EdgeId> Match(const std::vector<Vec2>& points) const;

  /// Context-aware matching for the serving path: the candidate scan and
  /// the Viterbi recursion check the deadline periodically and abort
  /// with kDeadlineExceeded. With a null context
  /// this is exactly Match() and cannot fail.
  Result<std::vector<EdgeId>> Match(const std::vector<Vec2>& points,
                                    const RequestContext* ctx) const;

 private:
  const RoadNetwork* network_;
  MapMatchOptions options_;
};

}  // namespace stmaker

#endif  // STMAKER_ROADNET_MAP_MATCHER_H_
