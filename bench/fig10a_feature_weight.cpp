// Reproduces Fig. 10(a): effect of the feature weight on summarization.
//
// The speed feature's weight w is tuned from 0.5 to 4 (all other weights 1)
// and 1000 trajectories are summarized at each setting, as in Sec. VII-C4.
//
// Paper's shape claim: FF of the speed feature increases gradually with its
// weight, while the other features' FF stay roughly flat (they dip slightly
// since partitioning shifts, but speed's rise is the signal).
//
// Run:  ./build/bench/fig10a_feature_weight

#include <cstdio>

#include "bench_world.h"
#include "core/corpus_stats.h"

using namespace stmaker;
using namespace stmaker::bench;

int main() {
  BenchWorld world = BuildBenchWorld();
  const int kNumTrips = 1000;
  const double kWeights[] = {0.5, 1.0, 2.0, 3.0, 4.0};

  // The same 1000 trips are summarized under every weight setting.
  std::vector<GeneratedTrip> trips;
  Random rng(41);
  while (trips.size() < kNumTrips) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
    if (trip.ok()) trips.push_back(std::move(trip).value());
  }

  std::printf("\n=== Fig. 10(a) — effect of the speed feature weight ===\n");
  std::printf("%8s %6s %6s %6s %6s %6s %7s\n", "w(Spe)", "GR", "RW", "TD",
              "Spe", "Stay", "U-turn");

  double speed_ff_at[std::size(kWeights)];
  for (size_t wi = 0; wi < std::size(kWeights); ++wi) {
    Status st = world.maker->registry().SetWeight("speed", kWeights[wi]);
    STMAKER_CHECK(st.ok());
    std::vector<Summary> summaries;
    for (const GeneratedTrip& trip : trips) {
      Result<Summary> summary = world.maker->Summarize(trip.raw);
      if (summary.ok()) summaries.push_back(std::move(summary).value());
    }
    const std::vector<double> ff =
        ComputeFeatureFrequencies(summaries, kNumBuiltInFeatures);
    std::printf("%8.1f ", kWeights[wi]);
    for (size_t f = 0; f < kNumBuiltInFeatures; ++f) {
      std::printf("%6.2f ", ff[f]);
    }
    std::printf("\n");
    speed_ff_at[wi] = ff[kSpeedFeature];
  }
  Status st = world.maker->registry().SetWeight("speed", 1.0);
  STMAKER_CHECK(st.ok());

  std::printf("\n--- shape checks ---\n");
  bool monotone = true;
  for (size_t wi = 1; wi < std::size(kWeights); ++wi) {
    if (speed_ff_at[wi] + 1e-9 < speed_ff_at[wi - 1]) monotone = false;
  }
  std::printf("FF(Spe) non-decreasing in w: %.2f -> %.2f -> %.2f -> %.2f -> "
              "%.2f  -> %s\n",
              speed_ff_at[0], speed_ff_at[1], speed_ff_at[2], speed_ff_at[3],
              speed_ff_at[4], Verdict(monotone));
  std::printf("FF(Spe) grows overall (w=4 vs w=0.5): %s\n",
              Verdict(speed_ff_at[4] > speed_ff_at[0]));
  return ShapeCheckExitCode();
}
