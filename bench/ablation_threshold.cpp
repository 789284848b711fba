// Ablation (DESIGN.md E9): the irregular-rate threshold η.
//
// η controls the precision/recall trade-off of feature selection
// (Sec. V): low η describes everything (verbose, noisy); high η describes
// nothing. We sweep η and report, against simulator ground truth:
//
//   * mean selected features per summary and mean text length;
//   * event recall — share of ground-truth events (stays, U-turns)
//     mentioned by the summary;
//   * fabrication rate — share of summaries mentioning a discrete event
//     that never happened.
//
// Expected shape: selected features and recall fall monotonically with η;
// fabrication falls too; the paper's η = 0.2 sits on the knee.
//
// Run:  ./build/bench/ablation_threshold

#include <cstdio>

#include "bench_world.h"

using namespace stmaker;
using namespace stmaker::bench;

int main() {
  BenchWorld world = BuildBenchWorld();
  const int kNumTrips = 500;

  std::vector<GeneratedTrip> trips;
  Random rng(99);
  while (trips.size() < kNumTrips) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
    if (trip.ok()) trips.push_back(std::move(trip).value());
  }

  std::printf("\n=== Ablation — irregular-rate threshold η ===\n");
  std::printf("%6s %10s %10s %12s %14s\n", "eta", "feat/sum", "chars",
              "event recall", "fabrication");

  const double kEtas[] = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5};
  double recall_at[std::size(kEtas)];
  double features_at[std::size(kEtas)];
  for (size_t ei = 0; ei < std::size(kEtas); ++ei) {
    SummaryOptions options;
    options.eta = kEtas[ei];
    double features = 0;
    double chars = 0;
    int expected_events = 0;
    int recalled_events = 0;
    int fabricated = 0;
    int total = 0;
    for (const GeneratedTrip& trip : trips) {
      Result<Summary> summary = world.maker->Summarize(trip.raw, options);
      if (!summary.ok()) continue;
      ++total;
      for (const PartitionSummary& p : summary->partitions) {
        features += p.selected.size();
      }
      chars += summary->text.size();
      if (trip.events.num_stays >= 1) {
        ++expected_events;
        if (summary->ContainsFeature(kStayPointsFeature)) ++recalled_events;
      }
      if (trip.events.num_uturns >= 1) {
        ++expected_events;
        if (summary->ContainsFeature(kUTurnsFeature)) ++recalled_events;
      }
      bool fab = (trip.events.num_stays == 0 &&
                  summary->ContainsFeature(kStayPointsFeature)) ||
                 (trip.events.num_uturns == 0 &&
                  summary->ContainsFeature(kUTurnsFeature));
      if (fab) ++fabricated;
    }
    double recall = expected_events > 0
                        ? static_cast<double>(recalled_events) /
                              expected_events
                        : 1.0;
    features_at[ei] = features / total;
    recall_at[ei] = recall;
    std::printf("%6.2f %10.2f %10.0f %11.1f%% %13.1f%%\n", kEtas[ei],
                features / total, chars / total, 100.0 * recall,
                100.0 * fabricated / total);
  }

  std::printf("\n--- checks ---\n");
  bool monotone_features = true;
  for (size_t ei = 1; ei < std::size(kEtas); ++ei) {
    if (features_at[ei] > features_at[ei - 1] + 1e-9) {
      monotone_features = false;
    }
  }
  std::printf("selected features fall with eta: %s\n",
              Verdict(monotone_features));
  std::printf("recall at eta=0.05 (%.2f) > recall at eta=0.5 (%.2f): %s\n",
              recall_at[0], recall_at[5],
              Verdict(recall_at[0] > recall_at[5]));
  return ShapeCheckExitCode();
}
