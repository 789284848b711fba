// Reproduces Fig. 12: average time cost for summarizing one trajectory,
// (a) as a function of the trajectory size |T| (number of landmarks) and
// (b) as a function of the partition size k.
//
// Paper's shape claims: most trajectories summarize within tens of
// milliseconds; the cost grows only mildly with |T| and with k.
//
// Each row is the mean wall time per Summarize over a pool of 20 trips,
// timed with steady_clock: the pool is summarized once untimed, then in
// full passes until at least kMinSeconds have elapsed. Wall-clock rows
// drift with the host's load; the shape, not the absolute value, is the
// claim.
//
// Run:  ./build/bench/fig12_time_cost

#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_world.h"

using namespace stmaker;
using namespace stmaker::bench;

namespace {

constexpr size_t kTripsPerBucket = 20;
constexpr double kMinSeconds = 0.25;

/// Mean milliseconds per Summarize of `trips` under `options`.
double MeanSummarizeMs(const STMaker& maker,
                       const std::vector<RawTrajectory>& trips,
                       const SummaryOptions& options) {
  using Clock = std::chrono::steady_clock;
  size_t failures = 0;
  for (const RawTrajectory& raw : trips) {  // warm-up pass, untimed
    if (!maker.Summarize(raw, options).ok()) ++failures;
  }
  size_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed_s = 0;
  do {
    for (const RawTrajectory& raw : trips) {
      if (!maker.Summarize(raw, options).ok()) ++failures;
    }
    calls += trips.size();
    elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed_s < kMinSeconds);
  if (failures > 0) {
    std::printf("  (%zu failed summaries in this row)\n", failures);
  }
  return 1000.0 * elapsed_s / static_cast<double>(calls);
}

}  // namespace

int main() {
  BenchWorld world = BuildBenchWorld();

  // Trips whose |T| (landmark count) falls in [bucket, bucket + 10), for
  // the buckets the sweep uses: 10, 20, 30, 40.
  const std::vector<int> buckets = {10, 20, 30, 40};
  std::map<int, std::vector<RawTrajectory>> by_size;
  auto all_full = [&] {
    for (int b : buckets) {
      if (by_size[b].size() < kTripsPerBucket) return false;
    }
    return true;
  };
  Random rng(1212);
  for (int attempts = 0; attempts < 40000 && !all_full(); ++attempts) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
    if (!trip.ok()) continue;
    Result<CalibratedTrajectory> cal = world.maker->Calibrate(trip->raw);
    if (!cal.ok()) continue;
    const int bucket = static_cast<int>(cal->symbolic.size()) / 10 * 10;
    std::vector<RawTrajectory>& bin = by_size[bucket];
    if (bin.size() < kTripsPerBucket) bin.push_back(trip->raw);
  }

  std::printf("Fig. 12(a): mean summarize time by trajectory size |T| "
              "(default k)\n");
  std::printf("%-14s %6s %10s\n", "|T|", "trips", "ms/trip");
  for (int b : buckets) {
    const std::vector<RawTrajectory>& trips = by_size[b];
    if (trips.empty()) {
      std::printf("[%d,%d)        no trips in this bucket\n", b, b + 10);
      continue;
    }
    std::printf("[%d,%d)%*s %6zu %10.4f\n", b, b + 10, 7, "", trips.size(),
                MeanSummarizeMs(*world.maker, trips, SummaryOptions()));
  }

  std::printf("\nFig. 12(b): mean summarize time by partition size k "
              "(|T| in [20,30))\n");
  std::printf("%-14s %10s\n", "k", "ms/trip");
  const std::vector<RawTrajectory>& mid = by_size[20];
  if (mid.empty()) {
    std::printf("no trips in the |T| = 20 bucket\n");
    return 0;
  }
  for (int k = 1; k <= 7; ++k) {
    SummaryOptions options;
    options.k = k;
    std::printf("%-14d %10.4f\n", k,
                MeanSummarizeMs(*world.maker, mid, options));
  }
  return 0;
}
