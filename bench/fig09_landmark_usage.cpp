// Reproduces Fig. 9: usage frequency of landmark significance groups.
//
// For each summarized trajectory, the landmarks of the trajectory are sorted
// by significance (descending) and split into deciles (top 0–10%, 10–20%,
// ...). For each decile we measure how often its landmarks are actually used
// in the summary (as partition sources/destinations).
//
// Paper's shape claims: a long-tail distribution — the top-10% group
// accounts for ~40% of the landmarks used, and the top three deciles for
// ~60%.
//
// Run:  ./build/bench/fig09_landmark_usage

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "bench_world.h"

using namespace stmaker;
using namespace stmaker::bench;

int main() {
  BenchWorld world = BuildBenchWorld();
  const int kNumTrips = 800;

  // usage[d] = number of summary-used landmarks falling in decile d of
  // their own trajectory's significance ranking.
  double usage[10] = {0};
  double total_used = 0;
  int summarized = 0;

  Random rng(17);
  while (summarized < kNumTrips) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
    if (!trip.ok()) continue;
    Result<Summary> summary = world.maker->Summarize(trip->raw);
    if (!summary.ok()) continue;
    ++summarized;

    // Rank the trajectory's landmarks by significance (descending).
    std::vector<LandmarkId> ranked;
    for (const SymbolicSample& s : summary->symbolic.samples) {
      ranked.push_back(s.landmark);
    }
    std::sort(ranked.begin(), ranked.end(),
              [&](LandmarkId a, LandmarkId b) {
                return world.landmarks->landmark(a).significance >
                       world.landmarks->landmark(b).significance;
              });

    // Landmarks mentioned by the summary: partition boundaries.
    std::set<LandmarkId> used;
    for (const PartitionSummary& p : summary->partitions) {
      used.insert(p.source);
      used.insert(p.destination);
    }
    for (LandmarkId lm : used) {
      auto it = std::find(ranked.begin(), ranked.end(), lm);
      if (it == ranked.end()) continue;
      size_t rank = static_cast<size_t>(it - ranked.begin());
      size_t decile = rank * 10 / ranked.size();
      usage[std::min<size_t>(decile, 9)] += 1;
      total_used += 1;
    }
  }

  std::printf("\n=== Fig. 9 — usage frequency of landmark groups ===\n");
  std::printf("%-18s %14s\n", "significance group", "usage share");
  for (int d = 0; d < 10; ++d) {
    std::printf("top %3d%%-%3d%%      %13.1f%%\n", d * 10, d * 10 + 10,
                100.0 * usage[d] / total_used);
  }

  double top1 = usage[0] / total_used;
  double top3 = (usage[0] + usage[1] + usage[2]) / total_used;
  std::printf("\n--- shape checks ---\n");
  std::printf("top-10%% share: %.1f%% (paper: ~40%%)  -> %s\n", 100 * top1,
              Verdict(top1 > 0.25, "long tail OK"));
  std::printf("top-30%% share: %.1f%% (paper: ~60%%)  -> %s\n", 100 * top3,
              Verdict(top3 > 0.5, "majority in top deciles OK"));
  bool monotone_head = usage[0] > usage[3] && usage[0] > usage[9];
  std::printf("head dominates tail -> %s\n",
              Verdict(monotone_head));
  return ShapeCheckExitCode();
}
