#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/strings.h"
#include "io/trajectory_io.h"
#include "roadnet/shortest_path.h"

namespace perfbench {

using stmaker::RawTrajectory;

std::unique_ptr<LoadedModel> LoadModel(const std::string& model_path,
                                       const std::string& data_dir,
                                       std::string* error) {
  auto model = std::make_unique<LoadedModel>();
  auto fail = [&](const stmaker::Status& status) {
    *error = status.ToString();
    return nullptr;
  };
  auto container = stmaker::MappedContainer::Open(model_path);
  if (!container.ok()) return fail(container.status());
  model->container = std::move(*container);
  auto network = stmaker::LoadNetworkFromContainer(*model->container);
  if (!network.ok()) return fail(network.status());
  model->network = std::move(*network);
  auto landmarks =
      stmaker::LoadLandmarksFromContainer(*model->container, model->network);
  if (!landmarks.ok()) return fail(landmarks.status());
  model->landmarks =
      std::make_unique<stmaker::LandmarkIndex>(std::move(*landmarks));
  auto corpus = stmaker::ReadTrajectoriesCsv(data_dir + "/trajectories.csv");
  if (!corpus.ok()) return fail(corpus.status());
  model->corpus = std::move(*corpus);
  model->maker = std::make_unique<stmaker::STMaker>(
      &model->network, model->landmarks.get(),
      stmaker::FeatureRegistry::BuiltIn());
  stmaker::Status st = model->maker->LoadModelContainer(*model->container);
  if (!st.ok()) return fail(st);
  return model;
}

WorldFacts BuildFacts(const LoadedModel& model, uint64_t seed,
                      size_t num_routes, const std::string& model_path) {
  WorldFacts facts;
  facts.num_trips = model.corpus.size();
  facts.model_path = model_path;
  facts.t_min = 1e300;
  facts.t_max = -1e300;
  for (const RawTrajectory& t : model.corpus) {
    for (const stmaker::RawSample& s : t.samples) {
      facts.extent.Extend(s.pos);
      facts.t_min = std::min(facts.t_min, s.time);
      facts.t_max = std::max(facts.t_max, s.time);
    }
  }
  // Only pairs Dijkstra reaches: then every not_found reply is a failure.
  stmaker::ShortestPathRouter dijkstra(&model.network);
  Rng rng(seed ^ 0x726f757465ULL);
  const uint64_t n = model.network.NumNodes();
  while (facts.routes.size() < num_routes && n > 1) {
    RoutePair p;
    p.src = static_cast<stmaker::NodeId>(rng.Below(n));
    p.dst = static_cast<stmaker::NodeId>(rng.Below(n));
    if (p.src == p.dst) continue;
    stmaker::Result<stmaker::Path> path = dijkstra.Route(p.src, p.dst);
    if (!path.ok()) continue;
    p.cost = path->cost;
    facts.routes.push_back(p);
  }
  return facts;
}

namespace {

/// `"key": `, the prefix of a value in a reply line.
std::string Needle(std::string_view key) {
  std::string needle = "\"";
  needle.append(key);
  needle.append("\": ");
  return needle;
}

/// Position just past `"key": ` in `json`, or npos.
size_t ValueAt(std::string_view json, std::string_view key) {
  const std::string needle = Needle(key);
  size_t at = json.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// The text between the '[' after `"key": ` and its matching ']'.
std::optional<std::string_view> ArrayField(std::string_view json,
                                           std::string_view key) {
  size_t at = ValueAt(json, key);
  if (at == std::string_view::npos || at >= json.size() || json[at] != '[') {
    return std::nullopt;
  }
  size_t end = json.find(']', at);
  if (end == std::string_view::npos) return std::nullopt;
  return json.substr(at + 1, end - at - 1);
}

/// Every number following `"key": ` inside `text`, in order.
std::vector<double> NumbersAfter(std::string_view text, std::string_view key) {
  std::vector<double> out;
  const std::string needle = Needle(key);
  for (size_t at = text.find(needle); at != std::string_view::npos;
       at = text.find(needle, at + 1)) {
    out.push_back(std::strtod(std::string(text.substr(at + needle.size(), 40))
                                  .c_str(),
                              nullptr));
  }
  return out;
}

std::vector<double> PlainNumbers(std::string_view text) {
  std::vector<double> out;
  std::string s(text);
  const char* p = s.c_str();
  for (;;) {
    char* end = nullptr;
    double v = std::strtod(p, &end);
    if (end == p) break;
    out.push_back(v);
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

}  // namespace

std::optional<std::string> JsonStringField(std::string_view json,
                                           std::string_view key) {
  size_t at = ValueAt(json, key);
  if (at == std::string_view::npos || at >= json.size() || json[at] != '"') {
    return std::nullopt;
  }
  std::string out;
  for (size_t i = at + 1; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i >= json.size()) return std::nullopt;
    switch (json[i]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        if (i + 4 >= json.size()) return std::nullopt;
        AppendUtf8(static_cast<uint32_t>(std::strtoul(
                       std::string(json.substr(i + 1, 4)).c_str(), nullptr,
                       16)),
                   &out);
        i += 4;
        break;
      }
      default: out.push_back(json[i]); break;  // \" \\ \/
    }
  }
  return std::nullopt;
}

std::optional<double> JsonNumberField(std::string_view json,
                                      std::string_view key) {
  size_t at = ValueAt(json, key);
  if (at == std::string_view::npos) return std::nullopt;
  std::string tail(json.substr(at, 40));
  char* end = nullptr;
  double v = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) return std::nullopt;
  return v;
}

void CheckReplies(const LoadedModel& reference, const WorldFacts& facts,
                  const std::vector<std::pair<Request, std::string>>& kept,
                  CheckReport* report) {
  const stmaker::STMaker& maker = *reference.maker;
  for (const auto& [request, reply] : kept) {
    if (request.verb == Verb::kReload ||
        ClassifyReply(reply) != Outcome::kOk) {
      continue;
    }
    std::string problem;
    switch (request.verb) {
      case Verb::kSummarize: {
        auto expected = maker.Summarize(reference.corpus[request.trip]);
        std::optional<std::string> text = JsonStringField(reply, "text");
        if (!expected.ok()) {
          problem = "served a summary the library refuses: " +
                    expected.status().ToString();
        } else if (!text || *text != expected->text) {
          problem = "summary text differs from STMaker::Summarize";
        } else if (JsonNumberField(reply, "partitions") !=
                   static_cast<double>(expected->partitions.size())) {
          problem = "partition count differs";
        }
        ++report->summaries_by_version[ModelVersionOf(reply)];
        break;
      }
      case Verb::kSimilar: {
        auto expected =
            maker.SimilarTrips(reference.corpus, request.trip, kSimilarK);
        std::optional<std::string_view> results =
            ArrayField(reply, "results");
        if (!expected.ok() || !results) {
          problem = "similar: no comparable scan-path answer";
          break;
        }
        std::vector<double> trips = NumbersAfter(*results, "trip");
        std::vector<double> scores = NumbersAfter(*results, "score");
        bool same = trips.size() == expected->size() &&
                    scores.size() == expected->size();
        for (size_t i = 0; same && i < trips.size(); ++i) {
          same = trips[i] == (*expected)[i].trip &&
                 std::fabs(scores[i] - (*expected)[i].score) <= 1e-6;
        }
        if (!same) problem = "similar results differ from the scan path";
        break;
      }
      case Verb::kQuery: {
        auto expected = maker.QueryRegion(reference.corpus, request.box,
                                          request.window);
        std::optional<std::string_view> trips = ArrayField(reply, "trips");
        if (!expected.ok() || !trips) {
          problem = "query: no comparable scan-path answer";
          break;
        }
        std::vector<double> got = PlainNumbers(*trips);
        bool same = got.size() == expected->size();
        for (size_t i = 0; same && i < got.size(); ++i) {
          same = got[i] == (*expected)[i];
        }
        if (!same) problem = "query trips differ from the scan path";
        break;
      }
      case Verb::kRoute: {
        std::optional<double> cost = JsonNumberField(reply, "cost");
        const double want = facts.routes[request.route].cost;
        // The reply prints the cost with 3 decimals.
        if (!cost || std::fabs(*cost - want) > 1e-3 + 1e-9 * want) {
          problem = stmaker::StrFormat("route cost %s, Dijkstra %.3f",
                                       reply.c_str(), want);
        }
        break;
      }
      case Verb::kReload:
        break;
    }
    ++report->checked;
    if (!problem.empty()) {
      report->Mismatch(stmaker::StrFormat(
          "request %llu (%s): %s", static_cast<unsigned long long>(request.id),
          VerbName(request.verb), problem.c_str()));
    }
  }
}

void CheckReport::Mismatch(const std::string& message) {
  ++mismatches;
  if (messages.size() < 5) messages.push_back(message);
}

void CheckVersionCoverage(const std::vector<Record>& records,
                          CheckReport* report) {
  std::set<uint64_t> served;
  for (const Record& r : records) {
    if (r.verb == Verb::kSummarize && r.outcome == Outcome::kOk) {
      served.insert(r.model_version);
    }
  }
  for (uint64_t version : served) {
    if (report->summaries_by_version.count(version) == 0) {
      report->Mismatch(stmaker::StrFormat(
          "no summary served by model version %llu was compared",
          static_cast<unsigned long long>(version)));
    }
  }
}

}  // namespace perfbench
