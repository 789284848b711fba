// Ablation (DESIGN.md E8): is the CRF/DP partitioner actually better than
// naive baselines?
//
// The paper argues (Sec. IV) that a good partition (1) splits at significant
// landmarks and (2) keeps feature-homogeneous segments together. We compare
// three partitioners at matched k = 3:
//
//   * dp       — the paper's k-partition dynamic program (Algorithm 1);
//   * uniform  — split the segments into three equal runs;
//   * topsig   — cut greedily at the two most significant interior landmarks
//                (significance only, ignoring feature cohesion).
//
// Metrics (lower potential is better; higher significance/similarity is
// better):
//   * potential — the CRF objective the DP minimizes (sanity: dp must win);
//   * boundary significance — mean l.s at chosen cut landmarks;
//   * within-partition similarity — mean S(TS_i, TS_{i+1}) over merged
//     boundaries (feature cohesion retained).
//
// Run:  ./build/bench/ablation_partition

#include <cstdio>
#include <numeric>

#include "bench_world.h"
#include "core/similarity.h"

using namespace stmaker;
using namespace stmaker::bench;

namespace {

struct Metrics {
  double potential = 0;
  double boundary_significance = 0;
  double within_similarity = 0;
  int trips = 0;
  int cut_count = 0;
  int merge_count = 0;

  void Print(const char* name) const {
    std::printf("%-8s %12.4f %22.4f %22.4f\n", name, potential / trips,
                cut_count > 0 ? boundary_significance / cut_count : 0.0,
                merge_count > 0 ? within_similarity / merge_count : 0.0);
  }
};

void Accumulate(Metrics* m, const std::vector<bool>& cuts,
                const std::vector<double>& sims,
                const std::vector<double>& sigs, double ca) {
  double potential = 0;
  for (size_t b = 0; b < cuts.size(); ++b) {
    if (cuts[b]) {
      potential += -ca * sigs[b];
      m->boundary_significance += sigs[b];
      m->cut_count++;
    } else {
      potential += -sims[b];
      m->within_similarity += sims[b];
      m->merge_count++;
    }
  }
  m->potential += potential;
  m->trips++;
}

}  // namespace

int main() {
  BenchWorld world = BuildBenchWorld();
  const int kNumTrips = 600;
  const int kK = 3;
  const double kCa = 1.6;

  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  FeatureExtractor extractor(&world.city.network, world.landmarks.get(),
                             &registry);
  Calibrator calibrator(world.landmarks.get());
  Partitioner partitioner;

  Metrics dp;
  Metrics uniform;
  Metrics topsig;

  Random rng(88);
  int used = 0;
  while (used < kNumTrips) {
    double start = world.generator->SampleStartTimeOfDay(&rng);
    Result<GeneratedTrip> trip = world.generator->GenerateTrip(start, &rng);
    if (!trip.ok()) continue;
    Result<CalibratedTrajectory> cal = calibrator.Calibrate(trip->raw);
    if (!cal.ok()) continue;
    Result<std::vector<SegmentFeatures>> features = extractor.Extract(*cal);
    if (!features.ok()) continue;
    const size_t n = cal->NumSegments();
    if (n < static_cast<size_t>(kK) + 1) continue;
    ++used;

    std::vector<std::vector<double>> norm =
        NormalizeSegmentFeatures(*features);
    std::vector<double> weights = registry.Weights();
    std::vector<double> sims;
    std::vector<double> sigs;
    for (size_t i = 0; i + 1 < n; ++i) {
      sims.push_back(SegmentSimilarity(norm[i], norm[i + 1], weights));
      sigs.push_back(world.landmarks
                         ->landmark(cal->symbolic.samples[i + 1].landmark)
                         .significance);
    }

    // DP partition.
    Result<PartitionResult> result =
        partitioner.Partition(sims, sigs, {.ca = kCa, .k = kK});
    STMAKER_CHECK(result.ok());
    std::vector<bool> dp_cuts(n - 1, false);
    for (size_t p = 0; p + 1 < result->partitions.size(); ++p) {
      dp_cuts[result->partitions[p].second - 1] = true;
    }
    Accumulate(&dp, dp_cuts, sims, sigs, kCa);

    // Uniform split.
    std::vector<bool> uniform_cuts(n - 1, false);
    for (int c = 1; c < kK; ++c) {
      size_t boundary = c * n / kK;
      if (boundary >= 1 && boundary <= n - 1) {
        uniform_cuts[boundary - 1] = true;
      }
    }
    Accumulate(&uniform, uniform_cuts, sims, sigs, kCa);

    // Top-significance greedy.
    std::vector<size_t> order(n - 1);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return sigs[a] > sigs[b]; });
    std::vector<bool> topsig_cuts(n - 1, false);
    for (int c = 0; c < kK - 1 && c < static_cast<int>(order.size()); ++c) {
      topsig_cuts[order[c]] = true;
    }
    Accumulate(&topsig, topsig_cuts, sims, sigs, kCa);
  }

  std::printf("\n=== Ablation — partitioner quality at k = %d over %d trips "
              "===\n", kK, kNumTrips);
  std::printf("%-8s %12s %22s %22s\n", "method", "potential",
              "boundary significance", "within-part similarity");
  dp.Print("dp");
  topsig.Print("topsig");
  uniform.Print("uniform");

  std::printf("\n--- checks ---\n");
  std::printf("dp potential <= topsig potential:  %s\n",
              Verdict(dp.potential <= topsig.potential + 1e-9));
  std::printf("dp potential <= uniform potential: %s\n",
              Verdict(dp.potential <= uniform.potential + 1e-9));
  std::printf("dp boundary significance > uniform's: %s\n",
              Verdict(dp.boundary_significance / dp.cut_count >
                      uniform.boundary_significance /
                          std::max(1, uniform.cut_count)));
  return ShapeCheckExitCode();
}
