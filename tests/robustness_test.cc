// Robustness suite: input sanitization, quarantine training, degraded
// serving, atomic model saves, fault injection, and a deterministic fuzz
// driver (the model container's corruption sweep lives in
// container_test.cc). Everything here pins one promise:
// defective input — corrupt files, poisoned corpora, injected I/O faults —
// surfaces as a clean non-OK Status, never a crash, and never silently
// wrong output.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/context.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/stmaker.h"
#include "io/summary_json.h"
#include "io/trajectory_io.h"
#include "roadnet/shortest_path.h"
#include "test_world.h"
#include "traj/sanitize.h"

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::LoadedModel;
using ::stmaker::testing::LoadModelFile;
using ::stmaker::testing::SaveAndLoad;
using ::stmaker::testing::TestWorld;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::string TempPrefix(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A well-formed 5-point trajectory: 10 m and 10 s between fixes (1 m/s).
RawTrajectory CleanTrajectory() {
  RawTrajectory t;
  t.traveler = 7;
  for (int i = 0; i < 5; ++i) {
    t.samples.push_back({{10.0 * i, 0.0}, 10.0 * i});
  }
  return t;
}

// --------------------------------------------------------------------------
// SanitizeTrajectory
// --------------------------------------------------------------------------

TEST(SanitizeTest, CleanTrajectoryPassesThroughBitIdentical) {
  RawTrajectory t = CleanTrajectory();
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_points, 5u);
  EXPECT_EQ(report.dropped_points, 0u);
  EXPECT_EQ(report.ToString(), "clean (5 points)");
  ASSERT_EQ(out->samples.size(), t.samples.size());
  EXPECT_EQ(out->traveler, t.traveler);
  for (size_t i = 0; i < t.samples.size(); ++i) {
    EXPECT_EQ(out->samples[i].pos.x, t.samples[i].pos.x);
    EXPECT_EQ(out->samples[i].pos.y, t.samples[i].pos.y);
    EXPECT_EQ(out->samples[i].time, t.samples[i].time);
  }
}

TEST(SanitizeTest, RepairDropsNonFinitePoint) {
  RawTrajectory t = CleanTrajectory();
  t.samples[2].pos.x = kNan;
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->samples.size(), 4u);
  EXPECT_EQ(report.dropped_points, 1u);
  EXPECT_EQ(report.count(PointIssue::kNonFinite), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].index, 2u);
  EXPECT_EQ(report.diagnostics[0].issue, PointIssue::kNonFinite);
  EXPECT_NE(report.ToString().find("non-finite: 1"), std::string::npos);
}

TEST(SanitizeTest, RepairDropsOutOfRangeCoordinate) {
  RawTrajectory t = CleanTrajectory();
  t.samples[1].pos.y = 5.0e8;  // beyond any local projection
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->samples.size(), 4u);
  EXPECT_EQ(report.count(PointIssue::kOutOfRange), 1u);
}

TEST(SanitizeTest, RepairDropsBackwardsTimestamp) {
  RawTrajectory t = CleanTrajectory();
  t.samples[3].time = 5.0;  // runs backwards from 20
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->samples.size(), 4u);
  EXPECT_EQ(report.count(PointIssue::kNonMonotonicTime), 1u);
}

TEST(SanitizeTest, RepairDropsExactDuplicate) {
  RawTrajectory t = CleanTrajectory();
  t.samples.insert(t.samples.begin() + 2, t.samples[1]);  // same pos + time
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->samples.size(), 5u);
  EXPECT_EQ(report.count(PointIssue::kDuplicate), 1u);
}

TEST(SanitizeTest, RepairDropsTeleport) {
  RawTrajectory t = CleanTrajectory();
  t.samples[2].pos.x = 50000.0;  // ~5 km in 10 s = 500 m/s
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
  ASSERT_TRUE(out.ok());
  // The teleport point is dropped; its successors chain from sample 1
  // again, and sample 3 (x=30, 20 s after x=10) is fine.
  EXPECT_EQ(out->samples.size(), 4u);
  EXPECT_EQ(report.count(PointIssue::kTeleport), 1u);
}

TEST(SanitizeTest, TeleportCheckCanBeDisabled) {
  RawTrajectory t = CleanTrajectory();
  t.samples[2].pos.x = 50000.0;
  SanitizeOptions options;
  options.max_speed_mps = 0;  // disabled
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, options, &report);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->samples.size(), 5u);
  EXPECT_TRUE(report.clean());
}

TEST(SanitizeTest, DefectsAreJudgedAgainstLastAcceptedPoint) {
  // One bad fix must not poison its successor: after dropping the NaN at
  // index 2, index 3 is compared against index 1 and survives.
  RawTrajectory t = CleanTrajectory();
  t.samples[2].time = kNan;
  auto out = SanitizeTrajectory(t, SanitizeOptions());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->samples.size(), 4u);
  EXPECT_EQ(out->samples[2].time, 30.0);
}

TEST(SanitizeTest, StrictPolicyRejectsWholeTrajectory) {
  RawTrajectory t = CleanTrajectory();
  t.samples[2].pos.x = kNan;
  SanitizeOptions options;
  options.policy = SanitizePolicy::kStrict;
  SanitizeReport report;
  auto out = SanitizeTrajectory(t, options, &report);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(out.status().message().find("sample 2"), std::string::npos);
  EXPECT_NE(out.status().message().find("non-finite"), std::string::npos);
  // The report is filled even on rejection.
  EXPECT_EQ(report.count(PointIssue::kNonFinite), 1u);
}

TEST(SanitizeTest, FuzzedTrajectoriesNeverCrashRepair) {
  // Deterministic fuzz: random coordinates spanning NaN/Inf/huge/backwards
  // time. kRepair must always return OK with only defensible points kept.
  Random rng(1234);
  for (int round = 0; round < 200; ++round) {
    RawTrajectory t;
    size_t n = 1 + rng.UniformInt(static_cast<uint64_t>(20));
    for (size_t i = 0; i < n; ++i) {
      auto weird = [&](double v) -> double {
        switch (rng.UniformInt(static_cast<uint64_t>(5))) {
          case 0: return kNan;
          case 1: return std::numeric_limits<double>::infinity();
          case 2: return v * 1e12;
          case 3: return -v;
          default: return v;
        }
      };
      t.samples.push_back({{weird(rng.Uniform(0, 1000)),
                            weird(rng.Uniform(0, 1000))},
                           weird(rng.Uniform(0, 3600))});
    }
    SanitizeReport report;
    auto out = SanitizeTrajectory(t, SanitizeOptions(), &report);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(report.total_points, n);
    EXPECT_EQ(out->samples.size() + report.dropped_points, n);
    for (size_t i = 0; i < out->samples.size(); ++i) {
      EXPECT_TRUE(std::isfinite(out->samples[i].pos.x));
      EXPECT_TRUE(std::isfinite(out->samples[i].pos.y));
      EXPECT_TRUE(std::isfinite(out->samples[i].time));
      if (i > 0) {
        EXPECT_GE(out->samples[i].time, out->samples[i - 1].time);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Quarantine ingestion
// --------------------------------------------------------------------------

class QuarantineTest : public ::testing::Test {
 protected:
  QuarantineTest() : world_(GetTestWorld()) {
    raws_.reserve(world_.history.size());
    for (const GeneratedTrip& t : world_.history) raws_.push_back(t.raw);
    // Poison 20% of the corpus (every 5th trip) with a NaN fix mid-way.
    for (size_t i = 0; i < raws_.size(); i += 5) {
      raws_[i].samples[raws_[i].samples.size() / 2].pos.x = kNan;
      ++poisoned_;
    }
  }

  STMaker MakeMaker(STMakerOptions options) const {
    LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world_.landmarks);
    return STMaker(&world_.city.network, &landmarks,
                   FeatureRegistry::BuiltIn(), options);
  }

  const TestWorld& world_;
  std::vector<RawTrajectory> raws_;
  size_t poisoned_ = 0;
};

TEST_F(QuarantineTest, StrictTrainQuarantinesPoisonedTrajectories) {
  STMakerOptions options;
  options.sanitize.policy = SanitizePolicy::kStrict;
  STMaker maker = MakeMaker(options);
  auto report = maker.TrainWithReport(raws_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(maker.trained());
  EXPECT_EQ(report->total, raws_.size());
  EXPECT_EQ(report->sanitize_rejected, poisoned_);
  EXPECT_GE(report->quarantined, poisoned_);
  EXPECT_EQ(report->ingested + report->quarantined, report->total);
  EXPECT_EQ(maker.num_trained(), report->ingested);
  EXPECT_NEAR(report->QuarantineFraction(), 0.2, 0.05);
  EXPECT_NE(report->ToString().find("sanitize"), std::string::npos);
}

TEST_F(QuarantineTest, RepairTrainMendsPoisonedTrajectories) {
  STMakerOptions options;  // default kRepair
  STMaker maker = MakeMaker(options);
  auto report = maker.TrainWithReport(raws_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->sanitize_rejected, 0u);
  EXPECT_EQ(report->repaired, poisoned_);
  EXPECT_EQ(report->dropped_points, poisoned_);  // one bad fix each
}

TEST_F(QuarantineTest, ModelAndReportIdenticalAtAnyThreadCount) {
  // The acceptance bar: a 20%-poisoned corpus trains to a byte-identical
  // model whether ingestion ran on 1 thread or 4.
  STMakerOptions serial;
  serial.sanitize.policy = SanitizePolicy::kStrict;
  serial.num_threads = 1;
  STMakerOptions parallel = serial;
  parallel.num_threads = 4;

  STMaker maker1 = MakeMaker(serial);
  STMaker maker4 = MakeMaker(parallel);
  auto report1 = maker1.TrainWithReport(raws_);
  auto report4 = maker4.TrainWithReport(raws_);
  ASSERT_TRUE(report1.ok());
  ASSERT_TRUE(report4.ok());
  EXPECT_EQ(report1->ingested, report4->ingested);
  EXPECT_EQ(report1->quarantined, report4->quarantined);
  EXPECT_EQ(report1->sanitize_rejected, report4->sanitize_rejected);

  const std::string path1 = TempPrefix("quarantine_t1.stm");
  const std::string path4 = TempPrefix("quarantine_t4.stm");
  ASSERT_TRUE(maker1.SaveModelContainer(path1, raws_).ok());
  ASSERT_TRUE(maker4.SaveModelContainer(path4, raws_).ok());
  auto a = ReadFileToString(path1);
  auto b = ReadFileToString(path4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(*a == *b) << "the saved model differs across thread counts";
}

TEST_F(QuarantineTest, QuarantineFractionOverLimitIsHardError) {
  STMakerOptions options;
  options.sanitize.policy = SanitizePolicy::kStrict;
  options.max_quarantine_fraction = 0.1;  // poisoning runs at ~20%
  STMaker maker = MakeMaker(options);
  auto report = maker.TrainWithReport(raws_);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("quarantined"), std::string::npos);
  EXPECT_FALSE(maker.trained());
}

TEST_F(QuarantineTest, RejectedIncrementalBatchLeavesModelUntouched) {
  STMakerOptions options;
  options.sanitize.policy = SanitizePolicy::kStrict;
  options.max_quarantine_fraction = 0.1;
  STMaker maker = MakeMaker(options);
  // Clean corpus trains fine.
  std::vector<RawTrajectory> clean;
  for (const GeneratedTrip& t : world_.history) clean.push_back(t.raw);
  ASSERT_TRUE(maker.Train(clean).ok());
  size_t trained_before = maker.num_trained();
  size_t transitions_before = maker.popular_routes().NumTransitions();

  // A batch over the quarantine limit is rejected wholesale.
  std::vector<RawTrajectory> batch(raws_.begin(), raws_.begin() + 10);
  for (RawTrajectory& t : batch) {
    t.samples[t.samples.size() / 2].pos.x = kNan;  // 100% poisoned
  }
  Status incremental = maker.TrainIncremental(batch);
  ASSERT_FALSE(incremental.ok());
  EXPECT_EQ(incremental.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(maker.trained());
  EXPECT_EQ(maker.num_trained(), trained_before);
  EXPECT_EQ(maker.popular_routes().NumTransitions(), transitions_before);
}

TEST_F(QuarantineTest, ServingSanitizesItsInput) {
  // A trip with a NaN fix still summarizes under kRepair...
  RawTrajectory poisoned = world_.history[3].raw;
  poisoned.samples[poisoned.samples.size() / 2].pos.x = kNan;
  auto repaired = world_.maker->Summarize(poisoned);
  EXPECT_TRUE(repaired.ok()) << repaired.status().ToString();

  // ...and is rejected with kInvalidArgument under kStrict.
  STMakerOptions options;
  options.sanitize.policy = SanitizePolicy::kStrict;
  STMaker strict = MakeMaker(options);
  std::vector<RawTrajectory> clean;
  for (const GeneratedTrip& t : world_.history) clean.push_back(t.raw);
  ASSERT_TRUE(strict.Train(clean).ok());
  auto rejected = strict.Summarize(poisoned);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Graceful degradation (no-baseline serving)
// --------------------------------------------------------------------------

TEST(DegradedServingTest, EmptyModelYieldsNeutralRatesAndMarksBaselines) {
  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  PopularRouteMiner miner;                      // zero transitions
  HistoricalFeatureMap map(registry.size());    // empty history
  IrregularityAnalyzer analyzer(&registry, &miner, &map);

  SymbolicTrajectory symbolic;
  symbolic.samples = {{1, 0.0}, {2, 60.0}, {3, 120.0}};
  std::vector<SegmentFeatures> segments(2);
  for (SegmentFeatures& s : segments) {
    s.values.assign(registry.size(), 1.0);
  }

  PartitionComparison cmp = analyzer.IrregularRates(symbolic, segments, 0, 2);
  const std::vector<double>& rates = cmp.rates;
  const std::vector<BaselineStatus>& baselines = cmp.baselines;
  ASSERT_EQ(rates.size(), registry.size());
  ASSERT_EQ(baselines.size(), registry.size());
  for (size_t f = 0; f < rates.size(); ++f) {
    EXPECT_TRUE(std::isfinite(rates[f]));
    EXPECT_EQ(rates[f], 0.0) << "feature " << f << " is not neutral";
    EXPECT_EQ(baselines[f], BaselineStatus::kNoBaseline);
  }
}

TEST(DegradedServingTest, TrainedModelKeepsHistoricalBaselines) {
  const TestWorld& world = GetTestWorld();
  auto summary = world.maker->Summarize(world.history[1].raw);
  ASSERT_TRUE(summary.ok());
  for (const PartitionSummary& p : summary->partitions) {
    EXPECT_TRUE(p.baselines.empty());
    for (size_t f = 0; f < p.irregular_rates.size(); ++f) {
      EXPECT_EQ(p.baseline(f), BaselineStatus::kHistorical);
    }
  }
}

TEST(DegradedServingTest, JsonMarksNoBaselineFeatures) {
  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  Summary summary;
  summary.text = "degraded";
  PartitionSummary p;
  p.irregular_rates.assign(registry.size(), 0.0);
  p.baselines.assign(registry.size(), BaselineStatus::kNoBaseline);
  summary.partitions.push_back(p);
  std::string json = SummaryToJson(summary, registry);
  EXPECT_NE(json.find("\"no_baseline\""), std::string::npos);
  EXPECT_NE(json.find(registry.def(0).id), std::string::npos);

  // Fully historical summaries don't mention the key at all.
  summary.partitions[0].baselines.clear();
  EXPECT_EQ(SummaryToJson(summary, registry).find("\"no_baseline\""),
            std::string::npos);
}

// --------------------------------------------------------------------------
// Fuzzed CSV inputs
// --------------------------------------------------------------------------

TEST(FuzzTest, GarbageTrajectoryCsvReturnsCleanError) {
  Random rng(555);
  const std::string path = TempPrefix("fuzz_traj.csv");
  const char alphabet[] = "0123456789,\"\n\r.x-eNaN ";
  for (int round = 0; round < 100; ++round) {
    std::string garbage;
    // Half the rounds keep the real header so the fuzz reaches the row
    // parser instead of dying at the header check.
    if (round % 2 == 0) garbage = "trajectory_id,traveler,x,y,time\n";
    size_t len = rng.UniformInt(static_cast<uint64_t>(400));
    for (size_t i = 0; i < len; ++i) {
      garbage += alphabet[rng.UniformInt(
          static_cast<uint64_t>(sizeof(alphabet) - 1))];
    }
    ASSERT_TRUE(WriteFileToPath(path, garbage).ok());
    auto parsed = ReadTrajectoriesCsv(path);
    if (parsed.ok()) continue;  // rare: fuzz happened to be well-formed
    EXPECT_NE(parsed.status().code(), StatusCode::kOk);
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

// --------------------------------------------------------------------------
// Failpoints
// --------------------------------------------------------------------------

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailpointsCompiledIn()) {
      GTEST_SKIP() << "build without -DSTMAKER_FAILPOINTS=ON";
    }
  }
  void TearDown() override { DisarmAllFailpoints(); }
};

TEST_F(FailpointTest, ArmedReadFailpointSurfacesIoError) {
  const TestWorld& world = GetTestWorld();
  const std::string path = TempPrefix("failpoint_read_trajectories.csv");
  ASSERT_TRUE(WriteTrajectoriesCsv(path, world.raws).ok());

  ArmFailpoint("io/open-read");
  auto read = ReadTrajectoriesCsv(path);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
  EXPECT_GT(FailpointHitCount("io/open-read"), 0u);

  DisarmAllFailpoints();
  EXPECT_TRUE(ReadTrajectoriesCsv(path).ok());
}

TEST_F(FailpointTest, FailedSaveNeverPublishesAPartialModel) {
  // The container is written to a ".tmp" sibling and renamed into place:
  // a failed write or rename leaves neither the file nor the temp behind,
  // so a later load refuses the path instead of reading a torn model.
  const TestWorld& world = GetTestWorld();
  const std::string path = TempPrefix("failpoint_save_model.stm");
  for (const char* failpoint : {"io/write", "io/rename"}) {
    SCOPED_TRACE(failpoint);
    RemoveFileIfExists(path);  // fresh path across reruns
    ArmFailpoint(failpoint);
    Status saved = world.maker->SaveModelContainer(path, world.raws);
    DisarmAllFailpoints();
    EXPECT_EQ(saved.code(), StatusCode::kIoError) << saved.ToString();
    EXPECT_FALSE(FileExists(path));
    EXPECT_FALSE(FileExists(path + ".tmp"));
  }

  ASSERT_TRUE(world.maker->SaveModelContainer(path, world.raws).ok());
  EXPECT_TRUE(LoadModelFile(path).ok());
}

TEST_F(FailpointTest, WriteFailureCleansUpAndReturnsError) {
  ArmFailpoint("io/write");
  const std::string path = TempPrefix("failpoint_write.txt");
  Status written = WriteFileAtomic(path, "payload");
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FailpointTest, TrainShardFailpointQuarantinesDeterministically) {
  const TestWorld& world = GetTestWorld();
  LandmarkIndex& landmarks = const_cast<LandmarkIndex&>(*world.landmarks);
  STMaker maker(&world.city.network, &landmarks, FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> raws;
  for (const GeneratedTrip& t : world.history) raws.push_back(t.raw);

  ArmFailpoint("train/shard", /*skip=*/0, /*count=*/3);
  auto report = maker.TrainWithReport(raws);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->failpoint_injected, 3u);
  EXPECT_GE(report->quarantined, 3u);
  EXPECT_EQ(report->ingested + report->quarantined, report->total);
  EXPECT_TRUE(maker.trained());
}

TEST_F(FailpointTest, SkipAndCountWindowsAreHonored) {
  ArmFailpoint("test/window", /*skip=*/2, /*count=*/1);
  EXPECT_FALSE(FailpointShouldFail("test/window"));
  EXPECT_FALSE(FailpointShouldFail("test/window"));
  EXPECT_TRUE(FailpointShouldFail("test/window"));
  EXPECT_FALSE(FailpointShouldFail("test/window"));
  EXPECT_EQ(FailpointHitCount("test/window"), 4u);

  DisarmFailpoint("test/window");
  EXPECT_FALSE(FailpointShouldFail("test/window"));
}

// --------------------------------------------------------------------------
// Failpoint spec parsing (the STMAKER_FAILPOINTS grammar). The arming
// registry is live in every build — only the library-side hooks compile
// out — so these run without -DSTMAKER_FAILPOINTS=ON.
// --------------------------------------------------------------------------

class FailpointSpecTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmAllFailpoints(); }
};

TEST_F(FailpointSpecTest, ParsesEveryEntryForm) {
  ASSERT_TRUE(
      ArmFailpointsFromSpec("spec/bare; spec/count=2; spec/window=1:2").ok());
  // bare: every hit fails.
  EXPECT_TRUE(FailpointShouldFail("spec/bare"));
  EXPECT_TRUE(FailpointShouldFail("spec/bare"));
  // name=count: first `count` hits fail.
  EXPECT_TRUE(FailpointShouldFail("spec/count"));
  EXPECT_TRUE(FailpointShouldFail("spec/count"));
  EXPECT_FALSE(FailpointShouldFail("spec/count"));
  // name=skip:count: skip passing hits, then the failing window.
  EXPECT_FALSE(FailpointShouldFail("spec/window"));
  EXPECT_TRUE(FailpointShouldFail("spec/window"));
  EXPECT_TRUE(FailpointShouldFail("spec/window"));
  EXPECT_FALSE(FailpointShouldFail("spec/window"));
}

TEST_F(FailpointSpecTest, EmptyEntriesAreIgnored) {
  EXPECT_TRUE(ArmFailpointsFromSpec("").ok());
  EXPECT_TRUE(ArmFailpointsFromSpec(";;  ;").ok());
}

TEST_F(FailpointSpecTest, MalformedSpecsAreRejectedAndNameTheEntry) {
  struct Case {
    const char* spec;
    const char* want_in_message;
  };
  const Case cases[] = {
      {"=3", "no name"},
      {"spec/bad=", "malformed count"},
      {"spec/bad=abc", "malformed count"},
      {"spec/bad=-1", "malformed count"},
      {"spec/bad=1:2:3", "malformed count"},
      {"spec/bad=x:2", "malformed skip"},
      {"spec/bad=-1:2", "malformed skip"},
      {"spec/bad=1:", "malformed count"},
      {"spec/bad=9999999999", "malformed count"},  // > 9 digits
  };
  for (const Case& c : cases) {
    Status status = ArmFailpointsFromSpec(c.spec);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.spec;
    EXPECT_NE(status.message().find(c.want_in_message), std::string::npos)
        << c.spec << " -> " << status.message();
  }
}

TEST_F(FailpointSpecTest, MalformedSpecArmsNothingAtomically) {
  // The valid leading entry must not be armed when a later entry is bad.
  Status status = ArmFailpointsFromSpec("spec/valid; spec/bad=oops");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FailpointShouldFail("spec/valid"));
}

TEST_F(FailpointSpecTest, ReloadFailpointsFromEnvReArmsFromTheVariable) {
  ASSERT_EQ(setenv("STMAKER_FAILPOINTS", "env/point=1:1", /*overwrite=*/1),
            0);
  ASSERT_TRUE(ReloadFailpointsFromEnv().ok());
  EXPECT_FALSE(FailpointShouldFail("env/point"));  // skip window
  EXPECT_TRUE(FailpointShouldFail("env/point"));
  EXPECT_FALSE(FailpointShouldFail("env/point"));

  // A malformed variable reports the parse error and arms nothing.
  ASSERT_EQ(setenv("STMAKER_FAILPOINTS", "env/bad=nope", 1), 0);
  Status status = ReloadFailpointsFromEnv();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(FailpointShouldFail("env/bad"));
  EXPECT_FALSE(FailpointShouldFail("env/point"));  // previous set cleared

  // Unset variable: reload just disarms.
  ASSERT_EQ(unsetenv("STMAKER_FAILPOINTS"), 0);
  EXPECT_TRUE(ReloadFailpointsFromEnv().ok());
  EXPECT_FALSE(FailpointShouldFail("env/point"));
}

// --------------------------------------------------------------------------
// Request contexts on the serving path: deadlines, cancellation, budgets,
// admission control, and retry recovery.
// --------------------------------------------------------------------------

using std::chrono::milliseconds;

TEST(RequestContextServingTest, ExpiredContextFailsSummarizeUpFront) {
  const TestWorld& world = GetTestWorld();
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(-1));
  Result<Summary> summary =
      world.maker->Summarize(world.history[0].raw, SummaryOptions(), &ctx);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RequestContextServingTest, CancelledContextFailsSummarize) {
  const TestWorld& world = GetTestWorld();
  CancelSource source;
  source.Cancel();
  RequestContext ctx;
  ctx.cancel = source.token();
  Result<Summary> summary =
      world.maker->Summarize(world.history[0].raw, SummaryOptions(), &ctx);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kCancelled);
}

TEST(RequestContextServingTest, NodeExpansionBudgetCapsShortestPath) {
  const TestWorld& world = GetTestWorld();
  const RoadNetwork& network = world.city.network;
  ShortestPathRouter router(&network);
  NodeId src = 0;
  NodeId dst = static_cast<NodeId>(network.NumNodes() - 1);

  RequestContext tiny;
  tiny.max_node_expansions = 1;
  Result<Path> capped = router.Route(src, dst, nullptr, &tiny);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(capped.status().message().find("budget"), std::string::npos);

  // A budget large enough for the whole graph changes nothing.
  RequestContext roomy;
  roomy.max_node_expansions = network.NumNodes() + 1;
  Result<Path> budgeted = router.Route(src, dst, nullptr, &roomy);
  Result<Path> plain = router.Route(src, dst);
  ASSERT_TRUE(budgeted.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(budgeted->nodes, plain->nodes);
  EXPECT_EQ(budgeted->cost, plain->cost);
}

TEST_F(FailpointTest, StalledRouteSearchHonorsTheDeadline) {
  const TestWorld& world = GetTestWorld();
  // A fresh maker restored from disk starts with cold route caches, so the
  // popular-route Dijkstra genuinely runs (and stalls) instead of serving
  // a result another test already cached.
  std::unique_ptr<LoadedModel> loaded =
      SaveAndLoad(*world.maker, "stall_model.stm");
  const STMaker& maker = *loaded->maker;

  // "route/stall" sleeps 1 ms per node expansion: a summarize that would
  // normally finish in a few ms now wants seconds. The 50 ms deadline must
  // cut it off promptly with kDeadlineExceeded — never a truncated
  // summary.
  ArmFailpoint("route/stall");
  RequestContext ctx = RequestContext::WithDeadline(milliseconds(50));
  auto started = RequestContext::Clock::now();
  Result<Summary> summary =
      maker.Summarize(world.history[0].raw, SummaryOptions(), &ctx);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          RequestContext::Clock::now() - started)
                          .count();
  DisarmAllFailpoints();

  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kDeadlineExceeded);
  // Prompt: the stride-32 CancelCheck notices within tens of stalled
  // expansions. The generous bound keeps sanitizer builds green while
  // still distinguishing "aborted" from "ran the whole stalled search"
  // (which would take many seconds).
  EXPECT_LT(elapsed_ms, 2000.0);

  // The aborted request left no partial state behind: the same trip
  // summarizes fine afterwards.
  Result<Summary> retry =
      maker.Summarize(world.history[0].raw, SummaryOptions());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

}  // namespace
}  // namespace stmaker
