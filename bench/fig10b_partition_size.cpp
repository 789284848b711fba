// Reproduces Fig. 10(b): effect of the partition size k on summarization.
//
// 1000 trajectories are summarized with k varied from 1 to 7
// (Sec. VII-C4).
//
// Paper's shape claims: as k increases, the FF of the routing features (GR,
// RW, TD) decreases while the FF of the moving features (Spe, Stay, U-turn)
// increases — long partitions are more likely to deviate from the popular
// route as a whole (routing), while localized moving anomalies get diluted
// over long partitions (moving).
//
// We report the frequency at two granularities. The per-partition
// description rate (share of generated partition descriptions mentioning
// the feature) reproduces both of the paper's trends; the per-summary FF
// ("any partition mentions it") necessarily grows with k for concentrated
// anomalies, and we include it for transparency. See EXPERIMENTS.md.
//
// Run:  ./build/bench/fig10b_partition_size

#include <cstdio>

#include "bench_world.h"
#include "core/corpus_stats.h"

using namespace stmaker;
using namespace stmaker::bench;

int main() {
  BenchWorld world = BuildBenchWorld();
  const int kNumTrips = 1000;

  std::vector<GeneratedTrip> trips;
  Random rng(43);
  while (trips.size() < kNumTrips) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
    if (trip.ok()) trips.push_back(std::move(trip).value());
  }

  std::printf(
      "\n=== Fig. 10(b) — effect of the partition size k ===\n"
      "(headline: per-partition description rate)\n");
  std::printf("%4s | %6s %6s %6s %6s %6s %7s | %s\n", "k", "GR", "RW", "TD",
              "Spe", "Stay", "U-turn", "per-summary FF (GR..U-turn)");

  double routing_rate[8] = {0};
  double moving_rate[8] = {0};
  for (int k = 1; k <= 7; ++k) {
    SummaryOptions options;
    options.k = k;
    std::vector<Summary> summaries;
    for (const GeneratedTrip& trip : trips) {
      Result<Summary> summary = world.maker->Summarize(trip.raw, options);
      if (summary.ok()) summaries.push_back(std::move(summary).value());
    }
    const std::vector<double> per_partition =
        ComputePartitionDescriptionRates(summaries, kNumBuiltInFeatures);
    const std::vector<double> per_summary =
        ComputeFeatureFrequencies(summaries, kNumBuiltInFeatures);
    std::printf("%4d | ", k);
    for (size_t f = 0; f < kNumBuiltInFeatures; ++f) {
      std::printf("%6.3f ", per_partition[f]);
    }
    std::printf("| ");
    for (size_t f = 0; f < kNumBuiltInFeatures; ++f) {
      std::printf("%.2f ", per_summary[f]);
    }
    std::printf("\n");

    routing_rate[k] = (per_partition[kGradeOfRoadFeature] +
                       per_partition[kRoadWidthFeature] +
                       per_partition[kTrafficDirectionFeature]) /
                      3.0;
    moving_rate[k] = (per_partition[kSpeedFeature] +
                      per_partition[kStayPointsFeature] +
                      per_partition[kUTurnsFeature]) /
                     3.0;
  }

  std::printf("\n--- shape checks (per-partition description rate) ---\n");
  std::printf("routing rate k=1 %.3f vs k=7 %.3f  -> %s\n", routing_rate[1],
              routing_rate[7],
              Verdict(routing_rate[1] > routing_rate[7],
                      "decreases with k OK"));
  std::printf("moving rate  k=1 %.3f vs k=7 %.3f  -> %s\n", moving_rate[1],
              moving_rate[7],
              Verdict(moving_rate[7] > moving_rate[1],
                      "increases with k OK"));
  return ShapeCheckExitCode();
}
