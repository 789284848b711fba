#include "roadnet/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <string>
#include <vector>

#include "common/context.h"
#include "roadnet/map_generator.h"
#include "roadnet/shortest_path.h"

namespace stmaker {
namespace {

using std::chrono::milliseconds;

GeneratedMap SmallCity(int blocks, uint64_t seed, double one_way_fraction,
                       double removal_fraction) {
  MapGeneratorOptions opt;
  opt.blocks_x = blocks;
  opt.blocks_y = blocks;
  opt.arterial_every = 2;
  opt.one_way_fraction = one_way_fraction;
  opt.removal_fraction = removal_fraction;
  opt.seed = seed;
  return MapGenerator(opt).Generate();
}

double PathEdgeSum(const RoadNetwork& net, const Path& path) {
  double sum = 0;
  for (EdgeId e : path.edges) sum += net.edge(e).length_m;
  return sum;
}

void ExpectPathWellFormed(const RoadNetwork& net, const Path& path, NodeId src,
                          NodeId dst) {
  ASSERT_FALSE(path.nodes.empty());
  EXPECT_EQ(path.nodes.front(), src);
  EXPECT_EQ(path.nodes.back(), dst);
  ASSERT_EQ(path.nodes.size(), path.edges.size() + 1);
  for (size_t i = 0; i < path.edges.size(); ++i) {
    const RoadEdge& e = net.edge(path.edges[i]);
    NodeId u = path.nodes[i];
    NodeId v = path.nodes[i + 1];
    bool forward = e.from == u && e.to == v;
    bool backward = e.from == v && e.to == u &&
                    e.direction == TrafficDirection::kTwoWay;
    EXPECT_TRUE(forward || backward)
        << "edge " << path.edges[i] << " does not connect nodes " << u
        << " -> " << v;
  }
}

// The headline property of the ISSUE: across randomized networks, every
// (src, dst) pair agrees with Dijkstra — same reachability, same distance,
// and the unpacked path is a real path whose edge lengths sum to the
// reported cost.
TEST(ContractionHierarchyPropertyTest, MatchesDijkstraOnRandomNetworks) {
  constexpr int kNetworks = 200;
  constexpr double kRelTol = 1e-9;
  for (int i = 0; i < kNetworks; ++i) {
    int blocks = 4 + i % 3;
    double one_way = (i % 5) * 0.1;
    double removal = (i % 4) * 0.04;
    GeneratedMap city = SmallCity(blocks, 1000 + i, one_way, removal);
    const RoadNetwork& net = city.network;
    ShortestPathRouter dijkstra(&net);
    auto ch = ContractionHierarchy::Build(net);
    ASSERT_TRUE(ch.ok()) << ch.status().ToString();
    const size_t n = net.NumNodes();
    for (NodeId src = 0; static_cast<size_t>(src) < n; ++src) {
      for (NodeId dst = 0; static_cast<size_t>(dst) < n; ++dst) {
        Result<Path> want = dijkstra.Route(src, dst);
        Result<double> got = ch->Distance(src, dst);
        if (!want.ok()) {
          ASSERT_EQ(want.status().code(), StatusCode::kNotFound);
          ASSERT_FALSE(got.ok())
              << "net " << i << ": CH found a route Dijkstra did not, " << src
              << " -> " << dst;
          EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
          continue;
        }
        ASSERT_TRUE(got.ok())
            << "net " << i << ": CH missed route " << src << " -> " << dst
            << ": " << got.status().ToString();
        double tol = kRelTol * (1.0 + want->cost);
        ASSERT_NEAR(*got, want->cost, tol)
            << "net " << i << ": distance mismatch " << src << " -> " << dst;
        // Spot-check full path unpacking on a deterministic subset of the
        // pairs (unpacking every pair of every network triples the runtime
        // for no extra edge coverage).
        if ((src + 3 * dst + i) % 17 == 0) {
          Result<Path> path = ch->Route(src, dst);
          ASSERT_TRUE(path.ok()) << path.status().ToString();
          ExpectPathWellFormed(net, *path, src, dst);
          EXPECT_NEAR(path->cost, want->cost, tol);
          EXPECT_NEAR(PathEdgeSum(net, *path), want->cost,
                      1e-6 * (1.0 + want->cost));
        }
      }
    }
  }
}

TEST(ContractionHierarchyTest, EmptyNetworkIsRejected) {
  RoadNetwork net;
  auto ch = ContractionHierarchy::Build(net);
  ASSERT_FALSE(ch.ok());
  EXPECT_EQ(ch.status().code(), StatusCode::kInvalidArgument);
}

TEST(ContractionHierarchyTest, NodeIdOutOfRangeIsRejected) {
  GeneratedMap city = SmallCity(4, 1, 0.0, 0.0);
  auto ch = ContractionHierarchy::Build(city.network);
  ASSERT_TRUE(ch.ok());
  EXPECT_EQ(ch->Distance(-1, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ch->Distance(0, static_cast<NodeId>(city.network.NumNodes())).status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(ContractionHierarchyTest, ExpiredDeadlineFailsQuery) {
  GeneratedMap city = SmallCity(4, 2, 0.2, 0.0);
  auto ch = ContractionHierarchy::Build(city.network);
  ASSERT_TRUE(ch.ok());
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(-1));
  auto dist = ch->Distance(0, 5, &ctx);
  ASSERT_FALSE(dist.ok());
  EXPECT_EQ(dist.status().code(), StatusCode::kDeadlineExceeded);
  auto route = ch->Route(0, 7, &ctx);
  ASSERT_FALSE(route.ok());
  EXPECT_EQ(route.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ContractionHierarchyTest, ExpansionBudgetCapsQuery) {
  GeneratedMap city = SmallCity(5, 4, 0.2, 0.05);
  const RoadNetwork& net = city.network;
  auto ch = ContractionHierarchy::Build(net);
  ASSERT_TRUE(ch.ok());
  NodeId src = 0;
  NodeId dst = static_cast<NodeId>(net.NumNodes() - 1);

  RequestContext tiny;
  tiny.max_node_expansions = 1;
  auto capped = ch->Distance(src, dst, &tiny);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(capped.status().message().find("budget"), std::string::npos);

  // CH settles far fewer nodes than the graph has — a graph-sized budget is
  // roomy, and the capped failure must not poison later uncapped queries.
  RequestContext roomy;
  roomy.max_node_expansions = net.NumNodes() + 1;
  auto budgeted = ch->Distance(src, dst, &roomy);
  auto plain = ch->Distance(src, dst);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  ASSERT_TRUE(plain.ok());
  EXPECT_DOUBLE_EQ(*budgeted, *plain);
}

/// Restores `ch` over `net` from its raw arrays, as the model container
/// loader does.
Result<ContractionHierarchy> Restore(const ContractionHierarchy& ch,
                                     std::span<const uint32_t> rank,
                                     std::span<const ContractionHierarchy::Arc>
                                         arcs,
                                     const RoadNetwork& net) {
  return ContractionHierarchy::FromRaw(rank, arcs, net.NumEdges(),
                                       ch.NumShortcuts(), net, "test");
}

TEST(ContractionHierarchyTest, SaveLoadRoundTripPreservesQueries) {
  GeneratedMap city = SmallCity(5, 11, 0.3, 0.08);
  const RoadNetwork& net = city.network;
  auto built = ContractionHierarchy::Build(net);
  ASSERT_TRUE(built.ok());
  auto loaded = Restore(*built, built->ranks(), built->arcs(), net);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumNodes(), built->NumNodes());
  EXPECT_EQ(loaded->NumArcs(), built->NumArcs());
  EXPECT_EQ(loaded->NumShortcuts(), built->NumShortcuts());
  for (NodeId src = 0; static_cast<size_t>(src) < net.NumNodes();
       src += 7) {
    for (NodeId dst = 0; static_cast<size_t>(dst) < net.NumNodes();
         dst += 5) {
      auto a = built->Distance(src, dst);
      auto b = loaded->Distance(src, dst);
      ASSERT_EQ(a.ok(), b.ok());
      if (a.ok()) {
        EXPECT_DOUBLE_EQ(*a, *b);
      }
    }
  }
}

TEST(ContractionHierarchyTest, CorruptedArraysAreRejectedNotCrashed) {
  GeneratedMap city = SmallCity(4, 12, 0.2, 0.0);
  const RoadNetwork& net = city.network;
  auto built = ContractionHierarchy::Build(net);
  ASSERT_TRUE(built.ok());
  ASSERT_GT(built->NumShortcuts(), 0u);
  const std::vector<uint32_t> rank(built->ranks().begin(),
                                   built->ranks().end());
  const std::vector<ContractionHierarchy::Arc> arcs(built->arcs().begin(),
                                                    built->arcs().end());
  auto expect_rejected = [&](std::span<const uint32_t> r,
                             std::span<const ContractionHierarchy::Arc> a,
                             const std::string& message) {
    auto restored = Restore(*built, r, a, net);
    ASSERT_FALSE(restored.ok()) << message;
    EXPECT_EQ(restored.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(restored.status().message().find(message), std::string::npos)
        << restored.status().ToString();
  };

  // Truncation: half the arcs (the shortcuts come last) or a short rank
  // table.
  expect_rejected(rank, std::span(arcs).first(arcs.size() / 2),
                  "shortcut count mismatch");
  expect_rejected(std::span(rank).first(rank.size() - 1), arcs,
                  "different network");
  // A flipped arc weight: an original no longer matches its road edge, a
  // shortcut no longer matches its constituents.
  std::vector<ContractionHierarchy::Arc> bad = arcs;
  bad.front().weight += 1.0;
  expect_rejected(rank, bad, "weight disagrees with edge length");
  bad = arcs;
  bad.back().weight += 1.0;
  expect_rejected(rank, bad, "weight disagrees with constituents");
  // A rank table that is not a permutation.
  std::vector<uint32_t> dup = rank;
  dup[1] = dup[0];
  expect_rejected(dup, arcs, "duplicate rank");
  // A valid hierarchy for a *different* network must be refused (stale
  // model).
  GeneratedMap other = SmallCity(5, 13, 0.2, 0.0);
  auto stale = Restore(*built, rank, arcs, other.network);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(stale.status().message().find("different network"),
            std::string::npos);
}

TEST(ContractionHierarchyTest, ShortcutsActuallyAccelerate) {
  // On a real city-sized map the bidirectional upward search must settle
  // far fewer nodes than the graph holds — that is the entire point of the
  // preprocessing. Give each query a budget of a small fraction of the
  // graph and require it to succeed.
  MapGeneratorOptions opt;
  opt.blocks_x = 40;
  opt.blocks_y = 40;
  opt.seed = 99;
  GeneratedMap city = MapGenerator(opt).Generate();
  const RoadNetwork& net = city.network;
  auto ch = ContractionHierarchy::Build(net);
  ASSERT_TRUE(ch.ok());
  EXPECT_GT(ch->NumShortcuts(), 0u);
  ShortestPathRouter dijkstra(&net);
  RequestContext ctx;
  ctx.max_node_expansions = net.NumNodes() / 4;
  NodeId src = 0;
  NodeId dst = static_cast<NodeId>(net.NumNodes() - 1);
  auto got = ch->Distance(src, dst, &ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = dijkstra.Route(src, dst);
  ASSERT_TRUE(want.ok());
  EXPECT_NEAR(*got, want->cost, 1e-9 * (1.0 + want->cost));
}

}  // namespace
}  // namespace stmaker
