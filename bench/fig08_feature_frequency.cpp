// Reproduces Fig. 8: feature frequency (FF) of the six features across the
// twelve two-hour buckets of the day.
//
//   FF_f = (# summaries containing f) / (# total summaries)   (Sec. VII-C2)
//
// Paper's shape claims:
//   * every feature has conspicuously higher FF during daytime (06–18) than
//     at night;
//   * speed FF spikes in the rush buckets 06–08, 08–10, 16–18, 18–20.
//
// Run:  ./build/bench/fig08_feature_frequency

#include <cstdio>

#include "bench_world.h"
#include "core/corpus_stats.h"

using namespace stmaker;
using namespace stmaker::bench;

int main() {
  BenchWorld world = BuildBenchWorld();
  const size_t kTripsPerBucket = 150;

  std::printf("\n=== Fig. 8 — feature FF by time of day ===\n");
  std::printf("%-12s %6s %6s %6s %6s %6s %7s %7s\n", "bucket", "GR", "RW",
              "TD", "Spe", "Stay", "U-turn", "#trips");

  double day_ff[kNumBuiltInFeatures] = {0};
  double night_ff[kNumBuiltInFeatures] = {0};
  int day_buckets = 0;
  int night_buckets = 0;
  double rush_speed = 0;
  double offpeak_day_speed = 0;

  Random rng(9);
  for (int bucket = 0; bucket < 12; ++bucket) {
    std::vector<Summary> summaries;
    while (summaries.size() < kTripsPerBucket) {
      double start = (bucket * 2.0 + rng.Uniform(0, 2.0)) * 3600.0;
      Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
      if (!trip.ok()) continue;
      Result<Summary> summary = world.maker->Summarize(trip->raw);
      if (!summary.ok()) continue;
      summaries.push_back(std::move(summary).value());
    }
    const std::vector<double> ff =
        ComputeFeatureFrequencies(summaries, kNumBuiltInFeatures);
    std::printf("%02d:00-%02d:00 ", bucket * 2, bucket * 2 + 2);
    for (size_t f = 0; f < kNumBuiltInFeatures; ++f) {
      std::printf("%6.2f ", ff[f]);
      bool is_day = bucket >= 3 && bucket < 9;  // 06:00–18:00
      if (is_day) day_ff[f] += ff[f];
      else night_ff[f] += ff[f];
    }
    std::printf("%7zu\n", summaries.size());
    if (bucket >= 3 && bucket < 9) ++day_buckets;
    else ++night_buckets;

    double speed_ff = ff[kSpeedFeature];
    if (bucket == 3 || bucket == 4 || bucket == 8 || bucket == 9) {
      rush_speed += speed_ff / 4.0;
    }
    if (bucket == 5 || bucket == 6) {
      offpeak_day_speed += speed_ff / 2.0;
    }
  }

  std::printf("\n--- shape checks (paper's qualitative claims) ---\n");
  for (size_t f = 0; f < kNumBuiltInFeatures; ++f) {
    double day = day_ff[f] / day_buckets;
    double night = night_ff[f] / night_buckets;
    std::printf("%-7s day FF %.3f vs night FF %.3f  -> %s\n",
                FeatureLabel(f), day, night,
                Verdict(day > night, "day > night OK"));
  }
  std::printf("speed: rush-hour FF %.3f vs midday FF %.3f  -> %s\n",
              rush_speed, offpeak_day_speed,
              Verdict(rush_speed > offpeak_day_speed, "rush spike OK"));
  return ShapeCheckExitCode();
}
