#include "arith.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

std::vector<size_t> QuietSlices(const std::vector<double>& steal,
                                double quiet_steal) {
  const size_t half = (steal.size() + 1) / 2;
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t quiet = 0;
  while (quiet < order.size() && steal[order[quiet]] <= quiet_steal) ++quiet;
  order.resize(std::max(quiet, half));
  std::sort(order.begin(), order.end());
  return order;
}

double MedianAt(const std::vector<double>& values,
                const std::vector<size_t>& indices) {
  std::vector<double> picked;
  for (size_t i : indices) picked.push_back(values.at(i));
  return Median(std::move(picked));
}

std::optional<size_t> ReservoirSlot(uint64_t seen, size_t cap, uint64_t draw) {
  if (seen == 0 || cap == 0) return std::nullopt;
  if (seen <= cap) return static_cast<size_t>(seen - 1);
  const uint64_t slot = draw % seen;
  if (slot < cap) return static_cast<size_t>(slot);
  return std::nullopt;
}

uint64_t ModelVersionOf(std::string_view reply) {
  constexpr std::string_view kKey = "\"model_version\": ";
  size_t at = reply.rfind(kKey);
  if (at == std::string_view::npos) return 0;
  uint64_t version = 0;
  for (at += kKey.size(); at < reply.size() && reply[at] >= '0' &&
                          reply[at] <= '9';
       ++at) {
    version = version * 10 + static_cast<uint64_t>(reply[at] - '0');
  }
  return version;
}

Outcome ClassifyReply(std::string_view reply) {
  constexpr std::string_view kKey = "\"status\": \"";
  size_t at = reply.find(kKey);
  if (at == std::string_view::npos) return Outcome::kNotOk;
  return reply.substr(at + kKey.size(), 3) == "ok\"" ? Outcome::kOk
                                                     : Outcome::kNotOk;
}

void Tally::Add(Outcome outcome) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk:
      ++ok;
      break;
    case Outcome::kNotOk:
      ++not_ok;
      break;
    case Outcome::kMissing:
      ++missing;
      break;
  }
}

namespace {

/// Splits on runs of spaces.
std::vector<std::string_view> Fields(std::string_view text) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t' &&
           text[j] != '\n') {
      ++j;
    }
    if (j > i) out.push_back(text.substr(i, j - i));
    if (j < text.size() && text[j] == '\n') break;
    i = j;
  }
  return out;
}

std::optional<uint64_t> ToU64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

std::optional<uint64_t> ParseProcStatCpuTicks(std::string_view stat) {
  size_t close = stat.rfind(')');
  if (close == std::string_view::npos) return std::nullopt;
  // After "pid (comm)" come field 3 (state) onwards; utime is field 14.
  std::vector<std::string_view> rest = Fields(stat.substr(close + 1));
  constexpr size_t kUtime = 14 - 3;
  constexpr size_t kStime = 15 - 3;
  if (rest.size() <= kStime) return std::nullopt;
  std::optional<uint64_t> utime = ToU64(rest[kUtime]);
  std::optional<uint64_t> stime = ToU64(rest[kStime]);
  if (!utime || !stime) return std::nullopt;
  return *utime + *stime;
}

std::optional<double> CpuSecondsDelta(uint64_t before_ticks,
                                      uint64_t after_ticks,
                                      long ticks_per_second) {
  if (after_ticks < before_ticks || ticks_per_second <= 0) {
    return std::nullopt;
  }
  return static_cast<double>(after_ticks - before_ticks) /
         static_cast<double>(ticks_per_second);
}

std::optional<HostCpu> ParseProcStatHostCpu(std::string_view proc_stat) {
  std::vector<std::string_view> fields = Fields(proc_stat);
  // cpu user nice system idle iowait irq softirq steal [guest guest_nice]
  if (fields.size() < 9 || fields[0] != "cpu") return std::nullopt;
  HostCpu cpu;
  // guest time is already counted inside user, so only the first 8 sum.
  for (size_t i = 1; i <= 8; ++i) {
    std::optional<uint64_t> v = ToU64(fields[i]);
    if (!v) return std::nullopt;
    cpu.total += *v;
    if (i == 8) cpu.steal = *v;
  }
  return cpu;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  if (after.total <= before.total || after.steal < before.steal) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::optional<uint64_t> ParseStatusField(std::string_view status,
                                         std::string_view key) {
  size_t at = 0;
  while (at < status.size()) {
    size_t eol = status.find('\n', at);
    if (eol == std::string_view::npos) eol = status.size();
    std::string_view line = status.substr(at, eol - at);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::vector<std::string_view> f = Fields(line.substr(key.size() + 1));
      if (f.empty()) return std::nullopt;
      return ToU64(f[0]);
    }
    at = eol + 1;
  }
  return std::nullopt;
}

int64_t SelfTimeNs(const std::vector<Span>& spans, size_t index) {
  const Span& parent = spans[index];
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (const Span& s : spans) {
    if (s.parent != static_cast<int>(index)) continue;
    int64_t begin = std::max(s.start_ns, parent.start_ns);
    int64_t end = std::min(s.end_ns, parent.end_ns);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  int64_t union_ns = 0;
  int64_t run_begin = 0;
  int64_t run_end = std::numeric_limits<int64_t>::min();
  for (const auto& [begin, end] : covered) {
    if (begin > run_end) {
      if (run_end > run_begin) union_ns += run_end - run_begin;
      run_begin = begin;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end > run_begin) union_ns += run_end - run_begin;
  return (parent.end_ns - parent.start_ns) - union_ns;
}

double Residual(double total, const std::vector<double>& parts) {
  double sum = 0;
  for (double p : parts) sum += p;
  return total - sum;
}

}  // namespace perfbench
