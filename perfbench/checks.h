// The in-process copy of the served model, the world facts requests are
// drawn from, and the output checks: every kept reply is compared with the
// answer the library gives for the same request.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/stmaker.h"
#include "driver.h"
#include "io/container.h"

namespace perfbench {

/// A model loaded from a `.stm` container the way the server loads it.
/// The container is declared first: the network aliases its mapping.
struct LoadedModel {
  std::shared_ptr<stmaker::MappedContainer> container;
  stmaker::RoadNetwork network;
  std::unique_ptr<stmaker::LandmarkIndex> landmarks;
  std::vector<stmaker::RawTrajectory> corpus;
  std::unique_ptr<stmaker::STMaker> maker;
};

/// Loads `model_path` plus `data_dir`/trajectories.csv; the error text on
/// failure.
std::unique_ptr<LoadedModel> LoadModel(const std::string& model_path,
                                       const std::string& data_dir,
                                       std::string* error);

/// Corpus extent and time span, and `num_routes` seeded node pairs that
/// Dijkstra reaches, with their Dijkstra costs.
WorldFacts BuildFacts(const LoadedModel& model, uint64_t seed,
                      size_t num_routes, const std::string& model_path);

/// The string value of `"key": "..."` in a flat reply line, unescaped.
std::optional<std::string> JsonStringField(std::string_view json,
                                           std::string_view key);
/// The numeric value of `"key": <number>`.
std::optional<double> JsonNumberField(std::string_view json,
                                      std::string_view key);

struct CheckReport {
  size_t checked = 0;  ///< replies compared with the library's answer
  size_t mismatches = 0;
  std::vector<std::string> messages;  ///< the first few mismatches
  /// Summaries compared, by the model version that served them.
  std::map<uint64_t, size_t> summaries_by_version;

  void Mismatch(const std::string& message);
};

/// Compares each ok kept reply with the library's answer: summaries
/// byte-equal to STMaker::Summarize, similar and query equal to the scan
/// path (`reference` must have had DropTrajectoryIndex()), route costs
/// equal to Dijkstra. Non-ok replies are failures, counted elsewhere;
/// reload replies carry nothing to compare and are not counted.
void CheckReplies(const LoadedModel& reference, const WorldFacts& facts,
                  const std::vector<std::pair<Request, std::string>>& kept,
                  CheckReport* report);

/// Every model version that served an ok summary in `records` must have at
/// least one compared summary in `report`; each one without is a mismatch.
/// On the reload workload this covers the reads after every swap.
void CheckVersionCoverage(const std::vector<Record>& records,
                          CheckReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
