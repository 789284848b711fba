#include "scenario_dsl.h"

#include <cctype>
#include <cmath>

#include "common/check.h"

namespace stmaker::testing {

namespace {

/// SplitMix64: cheap, seedable, and stable across platforms — scenario
/// noise must reproduce bit-identically everywhere.
inline uint64_t NextRand(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [-1, 1).
inline double NextSigned(uint64_t& state) {
  return static_cast<double>(NextRand(state) >> 11) * 0x1.0p-52 * 2.0 - 1.0;
}

}  // namespace

NodeId Scenario::node(char c) const {
  auto it = nodes.find(c);
  STMAKER_CHECK(it != nodes.end());
  return it->second;
}

Vec2 Scenario::pos(char c) const {
  if (auto it = nodes.find(c); it != nodes.end()) {
    return network.node(it->second).pos;
  }
  auto it = waypoints.find(c);
  STMAKER_CHECK(it != waypoints.end());
  return it->second;
}

EdgeId Scenario::edge(std::string_view way) const {
  if (auto it = ways.find(way); it != ways.end()) {
    STMAKER_CHECK(it->second.size() == 1);
    return it->second.front();
  }
  // Not a declared way: treat a two-letter key as a node pair and find the
  // edge the longer way created between them.
  STMAKER_CHECK(way.size() == 2);
  EdgeId e = network.FindEdgeBetween(node(way[0]), node(way[1]));
  if (e < 0) e = network.FindEdgeBetween(node(way[1]), node(way[0]));
  STMAKER_CHECK(e >= 0);
  return e;
}

Scenario BuildScenario(
    std::string_view art,
    const std::vector<std::pair<std::string, EdgeSpec>>& ways,
    const ScenarioOptions& options) {
  Scenario s;
  STMAKER_CHECK(options.grid_m > 0);

  // --- Scan the art: letters become nodes, digits become waypoints. ------
  size_t row = 0;
  size_t col = 0;
  for (char c : art) {
    if (c == '\n') {
      ++row;
      col = 0;
      continue;
    }
    Vec2 p{static_cast<double>(col) * options.grid_m,
           -static_cast<double>(row) * options.grid_m};
    if (std::isalpha(static_cast<unsigned char>(c))) {
      STMAKER_CHECK(s.nodes.find(c) == s.nodes.end());  // duplicate letter
      s.nodes[c] = s.network.AddNode(p);
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      STMAKER_CHECK(s.waypoints.find(c) == s.waypoints.end());
      s.waypoints[c] = p;
    }
    ++col;
  }
  STMAKER_CHECK(!s.nodes.empty());

  // --- Ways: each consecutive letter pair becomes one edge. --------------
  for (const auto& [way, spec] : ways) {
    STMAKER_CHECK(way.size() >= 2);
    std::vector<EdgeId>& edges = s.ways[way];
    for (size_t i = 0; i + 1 < way.size(); ++i) {
      Result<EdgeId> added = s.network.AddEdge(
          s.node(way[i]), s.node(way[i + 1]), spec.grade, spec.width_m,
          spec.direction, spec.name.empty() ? way : spec.name);
      STMAKER_CHECK(added.ok());
      edges.push_back(added.value());
    }
  }

  s.network.AnnotateTurningPoints();
  s.network.BuildSpatialIndex();
  if (options.build_landmarks) {
    s.landmarks = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(s.network, /*pois=*/{}));
  }
  return s;
}

std::vector<Vec2> ScenarioPath(const Scenario& s, std::string_view route,
                               double step_m, double noise_m,
                               uint64_t seed) {
  STMAKER_CHECK(route.size() >= 2);
  STMAKER_CHECK(step_m > 0);
  uint64_t rng = seed * 0x2545f4914f6cdd1dULL + 1;
  std::vector<Vec2> out;
  for (size_t i = 0; i + 1 < route.size(); ++i) {
    Vec2 a = s.pos(route[i]);
    Vec2 b = s.pos(route[i + 1]);
    double len = Distance(a, b);
    int steps = std::max(1, static_cast<int>(len / step_m));
    // Skip t=0 on every leg but the first so shared vertices emit once.
    for (int k = (i == 0 ? 0 : 1); k <= steps; ++k) {
      double t = static_cast<double>(k) / steps;
      Vec2 p = a + (b - a) * t;
      if (noise_m > 0) {
        p.x += NextSigned(rng) * noise_m;
        p.y += NextSigned(rng) * noise_m;
      }
      out.push_back(p);
    }
  }
  return out;
}

RawTrajectory ScenarioTrip(const Scenario& s, std::string_view route,
                           double start_time, double speed_mps,
                           double step_m, double noise_m, uint64_t seed) {
  STMAKER_CHECK(speed_mps > 0);
  std::vector<Vec2> path = ScenarioPath(s, route, step_m, noise_m, seed);
  RawTrajectory trip;
  trip.traveler = 1;
  double t = start_time;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) t += Distance(path[i - 1], path[i]) / speed_mps;
    trip.samples.push_back({path[i], t});
  }
  return trip;
}

Scenario NamedScenario::Build() const {
  ScenarioOptions options;
  options.grid_m = grid_m;
  return BuildScenario(art, ways, options);
}

std::vector<NamedScenario> ScenarioCorpus() {
  std::vector<NamedScenario> all;

  // A spur (D) hanging off a through-road: candidates near the junction
  // must not drag the match onto the dead end.
  all.push_back({"dead_end_spur",
                 R"(
      A----B----C----E
           |
           |
           D
)",
                 {{"ABCE", {.name = "Through Rd"}},
                  {"BD", {.name = "Spur Ct"}}},
                 "ABCE"});

  // One-way ring: traversable clockwise only; the reverse direction must
  // route the long way around.
  all.push_back({"one_way_ring",
                 R"(
      A----B
      |    |
      D----C
)",
                 {{"ABCDA",
                   {.direction = TrafficDirection::kOneWay,
                    .name = "Ring Rd"}}},
                 "ABCD"});

  // Two components with no connecting edge: routing across must fail,
  // and matching a trip on one side must never use the other's edges.
  all.push_back({"disconnected",
                 R"(
      A----B       E----F
      |    |       |    |
      C----D       G----H
)",
                 {{"ABDCA", {.name = "West Loop"}},
                  {"EFHGE", {.name = "East Loop"}}},
                 "ABDC"});

  // Degenerate grid: a single two-node edge — the smallest legal map.
  all.push_back({"degenerate_pair",
                 R"(
      A----------B
)",
                 {{"AB", {.name = "Only St"}}},
                 "AB"});

  // Dense urban core: a tight block grid at 30 m pitch (60 m blocks), so a
  // default 60 m candidate radius sees a dozen edges per fix — the
  // matcher-p99 regime the pruned candidate search targets.
  all.push_back({"dense_core",
                 R"(
      A-B-C-D-E
      | | | | |
      F-G-H-I-J
      | | | | |
      K-L-M-N-O
      | | | | |
      P-Q-R-S-T
      | | | | |
      U-V-W-X-Y
)",
                 {{"ABCDE", {.name = "North Ave"}},
                  {"FGHIJ", {.name = "2nd Ave"}},
                  {"KLMNO", {.name = "3rd Ave"}},
                  {"PQRST", {.name = "4th Ave"}},
                  {"UVWXY", {.name = "South Ave"}},
                  {"AFKPU", {.name = "West St"}},
                  {"BGLQV", {.name = "2nd St"}},
                  {"CHMRW", {.name = "3rd St"}},
                  {"DINSX", {.name = "4th St"}},
                  {"EJOTY", {.name = "East St"}}},
                 "ABGHMNSTY",
                 /*grid_m=*/30.0});

  // Long winding corridor: a single path with bends; stresses run-length
  // Viterbi chains and calibration along an extended polyline.
  all.push_back({"long_corridor",
                 R"(
      A----B
           |
           C----D----E
                     |
           G----F----+
           |
           H----I----J
)",
                 {{"ABCDEFGHIJ", {.name = "Serpentine Way"}}},
                 "ABCDEFGHIJ"});

  return all;
}

}  // namespace stmaker::testing
