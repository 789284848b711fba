// Golden-corpus regression suite: deterministic end-to-end summaries over
// the shared test world, serialized as JSON and diffed against checked-in
// expectations in tests/golden/. Any behavioral drift in the pipeline —
// sanitize, calibration, feature extraction, partition DP, irregularity
// selection, text generation — fails loudly with the full expected/actual
// diff.
//
// Regenerating after an intentional change:
//   UPDATE_GOLDEN=1 ./build/tests/golden_test
// then review the diff of tests/golden/*.json like any other code change.
//
// Beyond the per-case diffs, the suite pins two invariants the rest of the
// PR depends on: summaries are byte-identical at 1 vs 4 threads (training
// and batch serving), and byte-identical with tracing on vs off.

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/fileutil.h"
#include "common/trace.h"
#include "core/model_manager.h"
#include "core/stmaker.h"
#include "io/summary_json.h"
#include "net/ndjson_service.h"
#include "test_world.h"

#ifndef STMAKER_GOLDEN_DIR
#error "STMAKER_GOLDEN_DIR must be defined by the build"
#endif

namespace stmaker {
namespace {

using ::stmaker::testing::GetTestWorld;
using ::stmaker::testing::TestWorld;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

bool UpdateGoldenRequested() {
  const char* env = std::getenv("UPDATE_GOLDEN");
  return env != nullptr && std::string(env) != "0" && std::string(env) != "";
}

std::string GoldenPath(const std::string& case_name) {
  return std::string(STMAKER_GOLDEN_DIR) + "/" + case_name + ".json";
}

/// One deterministic end-to-end case: which maker, which input, which
/// options. `raw` defaults to corpus trip `trip` of the shared world.
struct GoldenCase {
  std::string name;
  size_t trip = 0;
  SummaryOptions options;
};

/// The default-maker cases. Coverage: unconstrained optimum (k=0), every
/// small k granularity, a clamped oversized k, both directions of the
/// irregularity threshold η, and the paper's C_a value (which can never
/// cut, so it pins the no-extra-partition path).
std::vector<GoldenCase> DefaultMakerCases() {
  std::vector<GoldenCase> cases;
  auto add = [&](const std::string& name, size_t trip,
                 int k, double eta, double ca = 1.6) {
    GoldenCase c;
    c.name = name;
    c.trip = trip;
    c.options.k = k;
    c.options.eta = eta;
    c.options.ca = ca;
    cases.push_back(c);
  };
  add("trip0_default", 0, 0, 0.2);
  add("trip1_k1", 1, 1, 0.2);
  add("trip2_k2", 2, 2, 0.2);
  add("trip3_k3", 3, 3, 0.2);
  add("trip4_k_clamped", 4, 99, 0.2);
  add("trip5_eta_low", 5, 0, 0.05);
  add("trip6_eta_high", 6, 0, 0.6);
  add("trip7_ca_paper", 7, 0, 0.2, 0.5);
  return cases;
}

std::string SummaryJsonOrDie(const STMaker& maker, const RawTrajectory& raw,
                             const SummaryOptions& options,
                             const RequestContext* ctx = nullptr) {
  Result<Summary> summary = maker.Summarize(raw, options, ctx);
  STMAKER_CHECK(summary.ok());
  // BuiltIn() is deterministic, so a fresh registry names features exactly
  // as the maker's own copy does.
  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  return SummaryToJson(*summary, registry) + "\n";
}

/// Compares `actual` against the checked-in golden (or rewrites it under
/// UPDATE_GOLDEN=1). Failures carry the full expected/actual pair plus the
/// regeneration hint — the "loud diff" contract.
void CheckGolden(const std::string& case_name, const std::string& actual) {
  const std::string path = GoldenPath(case_name);
  if (UpdateGoldenRequested()) {
    Status written = WriteFileToPath(path, actual);
    ASSERT_TRUE(written.ok()) << written.ToString();
    return;
  }
  Result<std::string> expected = ReadFileToString(path);
  ASSERT_TRUE(expected.ok())
      << "missing golden " << path
      << " — run UPDATE_GOLDEN=1 ./tests/golden_test to create it";
  if (*expected != actual) {
    size_t diff_at = 0;
    while (diff_at < expected->size() && diff_at < actual.size() &&
           (*expected)[diff_at] == actual[diff_at]) {
      ++diff_at;
    }
    FAIL() << "golden mismatch for case '" << case_name
           << "' (first difference at byte " << diff_at << ")\n"
           << "expected (" << path << "):\n" << *expected
           << "actual:\n" << actual
           << "If the change is intentional, regenerate with "
              "UPDATE_GOLDEN=1 ./tests/golden_test and review the diff.";
  }
}

const RawTrajectory& CorpusRaw(size_t trip) {
  const TestWorld& world = GetTestWorld();
  STMAKER_CHECK(trip < world.history.size());
  return world.history[trip].raw;
}

// --------------------------------------------------------------------------
// Default-maker cases (repair sanitize, full 400-trip baseline).
// --------------------------------------------------------------------------

TEST(GoldenTest, DefaultMakerCases) {
  const TestWorld& world = GetTestWorld();
  for (const GoldenCase& c : DefaultMakerCases()) {
    SCOPED_TRACE(c.name);
    CheckGolden(c.name,
                SummaryJsonOrDie(*world.maker, CorpusRaw(c.trip), c.options));
  }
}

// --------------------------------------------------------------------------
// Sanitize coverage: a defective input under repair, and a strict maker.
// --------------------------------------------------------------------------

/// Trip 8 with three injected defects a repair-mode maker must drop: a NaN
/// fix, a backwards-time fix, and an exact duplicate.
RawTrajectory PoisonedTrip8() {
  RawTrajectory raw = CorpusRaw(8);
  STMAKER_CHECK(raw.samples.size() > 6);
  raw.samples[2].pos.x = kNan;
  raw.samples[4].time = raw.samples[3].time - 100.0;
  raw.samples.insert(raw.samples.begin() + 6, raw.samples[5]);
  return raw;
}

TEST(GoldenTest, RepairSanitizeDropsPoisonedPoints) {
  const TestWorld& world = GetTestWorld();
  CheckGolden("trip8_nan_repair",
              SummaryJsonOrDie(*world.maker, PoisonedTrip8(),
                               SummaryOptions()));
}

TEST(GoldenTest, StrictSanitizeMaker) {
  // A strict-policy maker over a 100-trip slice of the corpus: clean
  // trips summarize bit-identically to what a repair maker would produce,
  // and the smaller baseline is itself part of the golden.
  const TestWorld& world = GetTestWorld();
  STMakerOptions options;
  options.sanitize.policy = SanitizePolicy::kStrict;
  STMaker strict(&world.city.network, world.landmarks.get(),
                 FeatureRegistry::BuiltIn(), options);
  std::vector<RawTrajectory> corpus;
  for (size_t i = 0; i < 100; ++i) corpus.push_back(CorpusRaw(i));
  Status trained = strict.Train(corpus);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  CheckGolden("trip9_strict",
              SummaryJsonOrDie(strict, CorpusRaw(9), SummaryOptions()));
}

// --------------------------------------------------------------------------
// No-baseline serving: a maker whose tiny corpus offers no popular-route
// evidence for the summarized trip's transitions.
// --------------------------------------------------------------------------

TEST(GoldenTest, NoBaselineMaker) {
  const TestWorld& world = GetTestWorld();
  STMaker sparse(&world.city.network, world.landmarks.get(),
                 FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> corpus;
  for (size_t i = 200; i < 204; ++i) corpus.push_back(CorpusRaw(i));
  Status trained = sparse.Train(corpus);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  CheckGolden("trip0_no_baseline",
              SummaryJsonOrDie(sparse, CorpusRaw(0), SummaryOptions()));
}

// --------------------------------------------------------------------------
// Cross-cutting invariants over the goldens.
// --------------------------------------------------------------------------

TEST(GoldenTest, GoldensIdenticalAtFourTrainingThreads) {
  // Re-train from scratch with 4 ingestion threads and check the
  // default-maker cases against the same golden files: parallel training
  // must not move a single byte of any golden.
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  const TestWorld& world = GetTestWorld();
  STMakerOptions options;
  options.num_threads = 4;
  STMaker parallel(&world.city.network, world.landmarks.get(),
                   FeatureRegistry::BuiltIn(), options);
  std::vector<RawTrajectory> corpus;
  corpus.reserve(world.history.size());
  for (const GeneratedTrip& t : world.history) corpus.push_back(t.raw);
  Status trained = parallel.Train(corpus);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  for (const GoldenCase& c : DefaultMakerCases()) {
    SCOPED_TRACE(c.name);
    CheckGolden(c.name,
                SummaryJsonOrDie(parallel, CorpusRaw(c.trip), c.options));
  }
}

TEST(GoldenTest, GoldensIdenticalThroughBatchAtOneAndFourThreads) {
  // The same trip through SummarizeBatch at 1 and 4 worker threads must
  // reproduce the per-call golden byte for byte.
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  const TestWorld& world = GetTestWorld();
  FeatureRegistry registry = FeatureRegistry::BuiltIn();
  std::vector<RawTrajectory> batch;
  for (size_t trip = 0; trip < 8; ++trip) batch.push_back(CorpusRaw(trip));
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    std::vector<Result<Summary>> results =
        world.maker->SummarizeBatch(batch, SummaryOptions(), threads);
    ASSERT_EQ(results.size(), batch.size());
    ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
    // trip0_default uses pure default options, so its golden doubles as
    // the batch expectation.
    CheckGolden("trip0_default",
                SummaryToJson(*results[0], registry) + "\n");
  }
}

TEST(GoldenTest, GoldensIdenticalUnderContractionHierarchy) {
  // The routing-backend contract: attaching a contraction hierarchy swaps
  // how length-metric road routes are computed, not what they are — so a
  // maker serving with the hierarchy must reproduce every default-maker
  // golden byte for byte.
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  const TestWorld& world = GetTestWorld();
  STMaker ch_maker(&world.city.network, world.landmarks.get(),
                   FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> corpus;
  corpus.reserve(world.history.size());
  for (const GeneratedTrip& t : world.history) corpus.push_back(t.raw);
  Status trained = ch_maker.Train(corpus);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  Status built = ch_maker.BuildRoadHierarchy();
  ASSERT_TRUE(built.ok()) << built.ToString();
  ASSERT_TRUE(ch_maker.has_road_hierarchy());
  for (const GoldenCase& c : DefaultMakerCases()) {
    SCOPED_TRACE(c.name);
    CheckGolden(c.name,
                SummaryJsonOrDie(ch_maker, CorpusRaw(c.trip), c.options));
  }
}

// --------------------------------------------------------------------------
// Serve-protocol goldens for the retrieval verbs: the exact NDJSON
// response lines for `similar` and `query`, including the degraded and
// failure shapes (no-baseline tiny corpus, empty result set, deterministic
// deadline_exceeded). Pinning the wire bytes here keeps the verb renderers
// honest the same way the summary goldens pin the pipeline.
// --------------------------------------------------------------------------

/// Serves a fixed model the way every real server does: `maker` is saved
/// with `corpus` to `<TempDir>/<name>` and loaded by a one-snapshot
/// ModelManager. The maker has no hierarchy, and a container load never
/// contracts one: the verbs these goldens pin never route.
std::unique_ptr<ModelManager> ServeSaved(
    const STMaker& maker, const std::vector<RawTrajectory>& corpus,
    const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  STMAKER_CHECK(maker.SaveModelContainer(path, corpus).ok());
  ModelManagerOptions options;
  options.model_prefix = path;
  auto manager = std::make_unique<ModelManager>(options);
  STMAKER_CHECK(manager->Initialize().ok());
  return manager;
}

/// Feeds one request line to the service and blocks for the single
/// response line (retrieval verbs answer from the pool).
std::string ServeLine(net::NdjsonService& service, const std::string& line) {
  std::mutex mu;
  std::condition_variable cv;
  std::string out;
  bool done = false;
  service.HandleLine(line, [&](std::string response) {
    // Notify while holding the lock: the waiter owns cv on its stack and
    // may destroy it the moment the predicate turns true, so the signal
    // must complete before the mutex is released.
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(response);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out + "\n";
}

TEST(GoldenTest, RetrievalVerbResponses) {
  const TestWorld& world = GetTestWorld();
  std::unique_ptr<ModelManager> manager =
      ServeSaved(*world.maker, world.raws, "golden_retrieval.stm");
  net::NdjsonService service(manager.get(), net::NdjsonServiceOptions());

  CheckGolden("serve_similar_top3",
              ServeLine(service,
                        R"({"id": 1, "similar": 1, "trip": 0, "k": 3})"));
  CheckGolden("serve_query_bbox",
              ServeLine(service,
                        R"({"id": 2, "query": 1, "bbox": "0,-4000,4000,0"})"));
  CheckGolden(
      "serve_query_window",
      ServeLine(service, R"({"id": 3, "query": 1, "bbox": "0,-4000,4000,0", )"
                         R"("window": "28800,43200"})"));
  // A box far outside the map: a well-formed ok response with zero trips.
  CheckGolden(
      "serve_query_empty",
      ServeLine(service,
                R"({"id": 4, "query": 1, "bbox": "1e7,1e7,1.1e7,1.1e7"})"));
  // Negative deadline_ms is the deterministic deadline_exceeded shape —
  // rejected at admission, before any retrieval work runs.
  CheckGolden("serve_similar_deadline",
              ServeLine(service, R"({"id": 5, "similar": 1, "trip": 0, )"
                                 R"("deadline_ms": -1})"));
  CheckGolden(
      "serve_query_deadline",
      ServeLine(service, R"({"id": 6, "query": 1, "bbox": "0,0,100,100", )"
                         R"("deadline_ms": -1})"));
  // Malformed shapes fail with invalid_argument, never a crash.
  CheckGolden("serve_query_bad_bbox",
              ServeLine(service,
                        R"({"id": 7, "query": 1, "bbox": "1,2,three,4"})"));
  CheckGolden("serve_similar_no_trip",
              ServeLine(service, R"({"id": 8, "similar": 1})"));
  // strtod-only shapes JSON forbids: non-finite numeric fields fail the
  // whole line at the protocol boundary (before the id is read, hence -1),
  // and non-finite bbox corners fail the bbox parse.
  CheckGolden("serve_similar_nan_trip",
              ServeLine(service, R"({"id": 9, "similar": 1, "trip": nan})"));
  CheckGolden("serve_query_inf_bbox",
              ServeLine(service,
                        R"({"id": 10, "query": 1, "bbox": "-inf,0,inf,0"})"));
  // A planet-spanning finite box is an ordinary (if broad) query: the
  // saturating grid math and per-axis probe guard route it through the
  // postings walk, and it answers promptly with every indexed trip.
  CheckGolden("serve_query_planet",
              ServeLine(service, R"({"id": 11, "query": 1, )"
                                 R"("bbox": "-1e300,-1e300,1e300,1e300"})"));
  service.Drain();
}

TEST(GoldenTest, WrongTypedFieldsAreRejected) {
  // Every protocol field has one JSON type. A known field sent with the
  // other type is invalid_argument naming the field — never silently read
  // as absent, which would serve the default k, drop the deadline, answer
  // under id -1, or reload the current model in place.
  const TestWorld& world = GetTestWorld();
  std::unique_ptr<ModelManager> manager =
      ServeSaved(*world.maker, world.raws, "golden_types.stm");
  net::NdjsonService service(manager.get(), net::NdjsonServiceOptions());
  CheckGolden("serve_type_k_string",
              ServeLine(service, R"({"id": 2, "trip": 4, "k": "3"})"));
  CheckGolden("serve_type_deadline_string",
              ServeLine(service,
                        R"({"id": 5, "trip": 4, "deadline_ms": "-1"})"));
  CheckGolden("serve_type_id_string",
              ServeLine(service, R"({"id": "6", "trip": 4})"));
  CheckGolden("serve_type_similar_k_string",
              ServeLine(service,
                        R"({"id": 8, "similar": 1, "trip": 4, "k": "1"})"));
  const uint64_t reloads_before = manager->reloads_ok();
  CheckGolden("serve_type_reload_model_dir_number",
              ServeLine(service,
                        R"({"id": 9, "reload": 1, "model_dir": 5})"));
  service.Drain();
  manager->WaitIdle();
  EXPECT_EQ(manager->reloads_ok(), reloads_before);
}

TEST(GoldenTest, TracingOnMatchesEveryGolden) {
  // The observability contract: attaching a Trace must not change a byte.
  // Every default-maker case is re-run with tracing enabled and compared
  // against the same golden file the untraced run satisfied.
  if (UpdateGoldenRequested()) GTEST_SKIP() << "regeneration run";
  const TestWorld& world = GetTestWorld();
  for (const GoldenCase& c : DefaultMakerCases()) {
    SCOPED_TRACE(c.name);
    Trace trace;
    RequestContext ctx;
    ctx.trace = &trace;
    CheckGolden(c.name, SummaryJsonOrDie(*world.maker, CorpusRaw(c.trip),
                                         c.options, &ctx));
    // And the trace must actually have observed the pipeline.
    bool saw_summarize = false;
    for (const TraceEvent& e : trace.Events()) {
      if (e.name == "summarize") saw_summarize = true;
    }
    EXPECT_TRUE(saw_summarize);
  }
}

TEST(GoldenTest, RetrievalVerbsOnSparseNoBaselineCorpus) {
  // The no-baseline maker (4-trip corpus): `similar` still answers with a
  // well-formed, deterministic response over the tiny corpus, and
  // out-of-range trips fail cleanly. Trains on the shared landmark index,
  // so — like NoBaselineMaker above — it must run after every test that
  // reads the full-corpus significance scores.
  const TestWorld& world = GetTestWorld();
  STMaker sparse(&world.city.network, world.landmarks.get(),
                 FeatureRegistry::BuiltIn());
  std::vector<RawTrajectory> corpus;
  for (size_t i = 200; i < 204; ++i) corpus.push_back(CorpusRaw(i));
  Status trained = sparse.Train(corpus);
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  std::unique_ptr<ModelManager> manager =
      ServeSaved(sparse, corpus, "golden_sparse.stm");
  net::NdjsonService service(manager.get(), net::NdjsonServiceOptions());
  CheckGolden("serve_similar_sparse",
              ServeLine(service,
                        R"({"id": 1, "similar": 1, "trip": 0, "k": 5})"));
  CheckGolden("serve_similar_sparse_oob",
              ServeLine(service,
                        R"({"id": 2, "similar": 1, "trip": 50, "k": 5})"));
  service.Drain();
}

}  // namespace
}  // namespace stmaker
