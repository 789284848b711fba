#ifndef STMAKER_TESTS_SCENARIO_DSL_H_
#define STMAKER_TESTS_SCENARIO_DSL_H_

/// \file
/// \brief ASCII-map scenario DSL for road-network tests and benchmarks.
///
/// A scenario is drawn as ASCII art plus a list of "ways". Letters in the
/// art become road-network nodes (placed on a uniform grid: one character
/// cell = `grid_m` meters, rows grow southward); digits become named
/// waypoints — positions a test can query or route trips through without
/// creating a node. Every other character is decoration and ignored, so
/// maps can be drawn with dashes and pipes for readability:
///
///   Scenario s = BuildScenario(R"(
///       A----B----C
///            |
///       1    D
///   )",
///   {
///       {"ABC", {.name = "Main St"}},
///       {"BD", {.direction = TrafficDirection::kOneWay}},
///   });
///
/// Each way is a node-letter string: "ABC" adds edges A->B and B->C with
/// the way's attributes (two-way unless the spec says one-way, in which
/// case the edges are traversable in string order only). Edge lengths
/// follow from the drawn geometry, so the picture IS the map.
///
/// The scenario also carries a landmark index built from the network's
/// turning points (no POIs), and helpers to synthesize GPS trips along a
/// node sequence — enough to drive the map matcher, calibration, and the
/// full pipeline over hand-drawn topologies.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "geo/vec2.h"
#include "landmark/landmark_index.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace stmaker::testing {

/// Attributes shared by every edge of one way.
struct EdgeSpec {
  RoadGrade grade = RoadGrade::kCountryRoad;
  double width_m = 10.0;
  TrafficDirection direction = TrafficDirection::kTwoWay;
  /// Road name; empty = the way's node string ("ABC").
  std::string name;
};

struct ScenarioOptions {
  /// Meters per ASCII character cell (both axes).
  double grid_m = 100.0;
  /// Build the turning-point landmark index (needed for calibration and
  /// full-pipeline runs; skip for pure-roadnet tests).
  bool build_landmarks = true;
};

/// A parsed scenario: network, node/waypoint registry, and per-way edges.
struct Scenario {
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  /// Node letter -> node id.
  std::map<char, NodeId> nodes;
  /// Waypoint digit -> drawn position.
  std::map<char, Vec2> waypoints;
  /// Way string -> the edge ids it created, in string order.
  std::map<std::string, std::vector<EdgeId>, std::less<>> ways;

  /// Node id of letter `c` (must exist in the art).
  NodeId node(char c) const;
  /// Position of node letter or waypoint digit `c`.
  Vec2 pos(char c) const;
  /// The single edge of a one-edge way, or — for a two-letter key that is
  /// not a declared way — the edge between those nodes (must exist).
  EdgeId edge(std::string_view way) const;
};

/// Parses the art and builds the network (spatial index included).
/// Aborts (STMAKER_CHECK) on malformed input: an unknown way letter, a
/// duplicate node letter, or an empty map — scenario bugs should fail the
/// test that wrote them, loudly.
Scenario BuildScenario(
    std::string_view art,
    const std::vector<std::pair<std::string, EdgeSpec>>& ways,
    const ScenarioOptions& options = ScenarioOptions());

/// Synthesizes a GPS trace along the node/waypoint sequence `route`
/// ("ABFC"): straight segments between consecutive points, one fix every
/// `step_m` meters at constant `speed_mps`, starting at `start_time`.
/// Optional deterministic cross-track noise of amplitude `noise_m`
/// (seeded by `seed`; 0 = on-road fixes).
std::vector<Vec2> ScenarioPath(const Scenario& s, std::string_view route,
                               double step_m = 40.0, double noise_m = 0.0,
                               uint64_t seed = 1);

/// ScenarioPath plus timestamps, packaged as a raw trajectory for the
/// calibration/pipeline layers.
RawTrajectory ScenarioTrip(const Scenario& s, std::string_view route,
                           double start_time = 0.0, double speed_mps = 10.0,
                           double step_m = 40.0, double noise_m = 0.0,
                           uint64_t seed = 1);

/// The scenario corpus: every topology the property tests and the bench
/// exercise, keyed by a stable name. Kept in one place so "runs the
/// scenario suite" means the same set everywhere.
struct NamedScenario {
  std::string name;
  const char* art;
  std::vector<std::pair<std::string, EdgeSpec>> ways;
  /// A representative route through the map (node letters), used for trip
  /// synthesis in tests and the bench.
  std::string route;
  /// Grid pitch for this map (dense maps shrink it so radius queries see
  /// many edges).
  double grid_m = 100.0;

  /// Builds the scenario with this map's grid pitch.
  Scenario Build() const;
};

/// Built fresh on each call (scenarios are cheap); >= 6 topologies:
/// dead-end spur, one-way ring, disconnected components, degenerate
/// two-node grid, dense urban core, long winding corridor.
std::vector<NamedScenario> ScenarioCorpus();

}  // namespace stmaker::testing

#endif  // STMAKER_TESTS_SCENARIO_DSL_H_
