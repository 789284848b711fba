#include "core/summary_index.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/check.h"

namespace stmaker {

namespace {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

SummaryIndex::DocId SummaryIndex::Add(Summary summary) {
  DocId id = summaries_.size();
  std::set<size_t> features;
  for (const PartitionSummary& p : summary.partitions) {
    for (const SelectedFeature& sel : p.selected) {
      features.insert(sel.feature);
    }
  }
  for (size_t f : features) by_feature_[f].push_back(id);
  summaries_.push_back(std::move(summary));
  return id;
}

const Summary& SummaryIndex::summary(DocId id) const {
  STMAKER_CHECK(id < summaries_.size());
  return summaries_[id];
}

std::vector<SummaryIndex::DocId> SummaryIndex::WithFeature(
    size_t feature) const {
  auto it = by_feature_.find(feature);
  if (it == by_feature_.end()) return {};
  return it->second;  // insertion order == ascending ids
}

std::vector<SummaryIndex::DocId> SummaryIndex::ContainingText(
    const std::string& needle) const {
  std::vector<DocId> out;
  if (needle.empty()) {
    out.resize(summaries_.size());
    for (DocId id = 0; id < summaries_.size(); ++id) out[id] = id;
    return out;
  }
  std::string lowered = ToLower(needle);
  for (DocId id = 0; id < summaries_.size(); ++id) {
    if (ToLower(summaries_[id].text).find(lowered) != std::string::npos) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<SummaryIndex::DocId> SummaryIndex::And(
    const std::vector<DocId>& a, const std::vector<DocId>& b) {
  std::vector<DocId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace stmaker
