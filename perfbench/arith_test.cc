// Unit tests for the benchmark's own arithmetic (arith.h). run.sh runs
// them before every benchmark run; a failure stops the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "arith.h"
#include "checks.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "arith_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

void TestPercentile() {
  // Nearest rank: the sample at rank ceil(p/100 * n).
  std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT(Percentile(ten, 50) == 5);
  EXPECT(Percentile(ten, 90) == 9);
  EXPECT(Percentile(ten, 99) == 10);
  EXPECT(Percentile(ten, 100) == 10);
  EXPECT(Percentile(ten, 10) == 1);
  EXPECT(Percentile(ten, 1) == 1);
  EXPECT(Percentile({4.5}, 90) == 4.5);
  EXPECT(Median({3, 1, 2, 4}) == 2);  // never interpolated
  EXPECT(std::isnan(Percentile({}, 50)));
}

void TestQuietSlices() {
  // Every quiet slice when at least half are quiet; indices come back in
  // slice order.
  const std::vector<double> steal = {0.20, 0.01, 0.03, 0.01, 0.00, 0.15};
  EXPECT(QuietSlices(steal, 0.03) == (std::vector<size_t>{1, 2, 3, 4}));
  EXPECT(QuietSlices(steal, 0.01) == (std::vector<size_t>{1, 3, 4}));
  // Fewer than half quiet: the half with the least steal, ties keeping the
  // earlier slice.
  EXPECT(QuietSlices(steal, 0.005) == (std::vector<size_t>{1, 3, 4}));
  EXPECT(QuietSlices({0.1, 0.1, 0.1, 0.2, 0.1}, 0.03) ==
         (std::vector<size_t>{0, 1, 2}));
  EXPECT(QuietSlices({0, 0}, 0.03).size() == 2);
  EXPECT(QuietSlices({}, 0.03).empty());
  // Slice 0 has the best value but the most steal: it is not picked.
  const std::vector<double> rps = {9000, 5000, 4000, 6000, 5500, 3000};
  EXPECT(MedianAt(rps, QuietSlices(steal, 0.01)) == 5500);
}

void TestReservoir() {
  // The first `cap` offers fill the slots in order.
  EXPECT(ReservoirSlot(1, 3, 77) == 0u);
  EXPECT(ReservoirSlot(3, 3, 77) == 2u);
  // Later offers replace slot draw % seen, or are dropped.
  EXPECT(ReservoirSlot(10, 3, 21) == 1u);
  EXPECT(!ReservoirSlot(10, 3, 25));
  EXPECT(!ReservoirSlot(5, 0, 0));
  // Over many offers each one is kept with probability cap / n, so the
  // sample spans the whole stream: a quarter of it comes from the last
  // quarter.
  uint64_t state = 12345;
  std::vector<size_t> slots(40, 0);
  const size_t n = 4000;
  for (size_t seen = 1; seen <= n; ++seen) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    if (std::optional<size_t> slot = ReservoirSlot(seen, slots.size(),
                                                   state >> 11)) {
      slots[*slot] = seen;
    }
  }
  size_t late = 0;
  for (size_t seen : slots) late += seen > 3 * n / 4 ? 1 : 0;
  EXPECT(late >= 4 && late <= 18);
}

void TestFailureCounting() {
  EXPECT(ClassifyReply("{\"id\": 1, \"status\": \"ok\", \"cost\": 3.5}") ==
         Outcome::kOk);
  EXPECT(ClassifyReply("{\"id\": 1, \"status\": \"not_found\", \"error\": "
                       "\"no path\"}") == Outcome::kNotOk);
  EXPECT(ClassifyReply("{\"id\": 1, \"status\": \"okay\"}") ==
         Outcome::kNotOk);
  EXPECT(ClassifyReply("garbage") == Outcome::kNotOk);
  Tally tally;
  tally.Add(Outcome::kOk);
  tally.Add(ClassifyReply("{\"id\": 2, \"status\": \"not_found\"}"));
  tally.Add(Outcome::kMissing);
  tally.Add(ClassifyReply("{\"id\": 4, \"status\": \"resource_exhausted\"}"));
  EXPECT(tally.attempted == 4);
  EXPECT(tally.ok == 1);
  EXPECT(tally.failed() == 3);
  EXPECT(tally.missing == 1);
}

void TestProcStatParsing() {
  // comm with spaces and a ')' must not shift the fields.
  const std::string before =
      "4242 (stmaker cli) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 "
      "150 25 0 0 20 0 6 0 12345 100000 2000 18446744073709551615\n";
  const std::string after =
      "4242 (stmaker cli) x) S 1 4242 4242 0 -1 4194560 1300 0 0 0 "
      "450 75 0 0 20 0 6 0 12345 100000 2100 18446744073709551615\n";
  EXPECT(ParseProcStatCpuTicks(before) == 175u);
  EXPECT(ParseProcStatCpuTicks(after) == 525u);
  std::optional<double> delta = CpuSecondsDelta(175, 525, 100);
  EXPECT(delta && std::fabs(*delta - 3.5) < 1e-12);
  EXPECT(!CpuSecondsDelta(525, 175, 100));
  EXPECT(!ParseProcStatCpuTicks("4242 (truncated) S 1 2"));
  EXPECT(!ParseProcStatCpuTicks("no parenthesis at all"));

  std::optional<HostCpu> a =
      ParseProcStatHostCpu("cpu  100 0 50 800 10 0 0 40 0 0\ncpu0 1 2 3\n");
  std::optional<HostCpu> b =
      ParseProcStatHostCpu("cpu  160 0 70 900 10 0 0 100 0 0\n");
  EXPECT(a && a->total == 1000 && a->steal == 40);
  EXPECT(b && std::fabs(StealShare(*a, *b) - 60.0 / 240.0) < 1e-12);
  EXPECT(!ParseProcStatHostCpu("intr 1 2 3 4 5 6 7 8 9"));

  const std::string status =
      "Name:\tstmaker_cli\nVmPeak:\t  300 kB\nVmHWM:\t  114688 kB\n"
      "voluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t7\n";
  EXPECT(ParseStatusField(status, "VmHWM") == 114688u);
  EXPECT(ParseStatusField(status, "nonvoluntary_ctxt_switches") == 7u);
  EXPECT(!ParseStatusField(status, "VmRSS"));
}

void TestSelfTime() {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40),
  // and [90, 120) sticks out of the parent: covered = [10, 60) + [90, 100).
  std::vector<Span> spans = {
      {"parent", 0, 100, -1, 7},
      {"a", 10, 40, 0, 7},
      {"b", 30, 60, 0, 7},
      {"c", 90, 120, 0, 7},
      {"grandchild", 12, 14, 1, 7},  // not a direct child of the parent
      {"other", 0, 100, -1, 8},
  };
  EXPECT(SelfTimeNs(spans, 0) == 100 - 50 - 10);
  EXPECT(SelfTimeNs(spans, 1) == 30 - 2);
  EXPECT(SelfTimeNs(spans, 5) == 100);
  // A child covering the whole parent leaves no self time.
  std::vector<Span> nested = {{"client", 0, 50, -1, 1},
                              {"net.service", -5, 60, 0, 1}};
  EXPECT(SelfTimeNs(nested, 0) == 0);
}

void TestResidual() {
  EXPECT(Residual(100, {20, 30, 10}) == 40);
  EXPECT(Residual(50, {}) == 50);
  EXPECT(Residual(10, {8, 4}) == -2);  // parts timed slower keep their sign
  // Parts plus residual give back the total.
  const std::vector<double> parts = {12.5, 0.25, 81};
  EXPECT(Residual(120, parts) + 12.5 + 0.25 + 81 == 120);
}

void TestReplyFields() {
  const std::string reply =
      "{\"id\": 9, \"status\": \"ok\", \"partitions\": 2, \"text\": "
      "\"A \\\"quoted\\\" road\\nnext \\u0001 end\", \"model_version\": 3}";
  EXPECT(JsonStringField(reply, "text") ==
         std::string("A \"quoted\" road\nnext \x01 end"));
  EXPECT(JsonNumberField(reply, "partitions") == 2.0);
  EXPECT(!JsonNumberField(reply, "cost"));
  EXPECT(ModelVersionOf(reply) == 3);
  EXPECT(ModelVersionOf("{\"id\": 1, \"status\": \"ok\", \"reloaded\": 1, "
                        "\"model_version\": 12}") == 12);
  EXPECT(ModelVersionOf("{\"id\": 1, \"status\": \"not_found\"}") == 0);
}

void TestVersionCoverage() {
  // Every version that served an ok summary needs a compared summary.
  std::vector<Record> records(4);
  records[0].outcome = Outcome::kOk;
  records[0].model_version = 1;
  records[1].outcome = Outcome::kOk;
  records[1].model_version = 2;
  records[2].outcome = Outcome::kNotOk;  // failed, so version 3 served none
  records[2].model_version = 3;
  records[3].verb = Verb::kRoute;
  records[3].outcome = Outcome::kOk;
  records[3].model_version = 4;
  CheckReport report;
  report.summaries_by_version[1] = 5;
  CheckVersionCoverage(records, &report);
  EXPECT(report.mismatches == 1);
  report.summaries_by_version[2] = 1;
  CheckReport covered = report;
  covered.mismatches = 0;
  CheckVersionCoverage(records, &covered);
  EXPECT(covered.mismatches == 0);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestQuietSlices();
  perfbench::TestReservoir();
  perfbench::TestFailureCounting();
  perfbench::TestProcStatParsing();
  perfbench::TestSelfTime();
  perfbench::TestResidual();
  perfbench::TestReplyFields();
  perfbench::TestVersionCoverage();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "arith_test: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "arith_test: all passed\n");
  return 0;
}
