#include "core/historical_feature_map.h"

#include "common/check.h"

namespace stmaker {

HistoricalFeatureMap::HistoricalFeatureMap(
    size_t num_features, std::span<const EdgeRecord> records)
    : num_features_(num_features), global_sum_(num_features, 0.0) {
  STMAKER_CHECK(num_features > 0);
  for (const EdgeRecord& record : records) {
    STMAKER_CHECK(record.sums.size() == num_features_);
    STMAKER_CHECK(record.count > 0);
    Accumulator& acc = edges_[{record.from, record.to}];
    if (acc.sum.empty()) {
      acc.sum.assign(num_features_, 0.0);
      key_order_.push_back({record.from, record.to});
    }
    for (size_t f = 0; f < num_features_; ++f) acc.sum[f] += record.sums[f];
    acc.count += record.count;
  }
  // The global row groups its sums by edge, so a map rebuilt from its own
  // Edges() has the same global row, bit for bit.
  for (const Key& key : key_order_) {
    const Accumulator& acc = edges_.find(key)->second;
    for (size_t f = 0; f < num_features_; ++f) global_sum_[f] += acc.sum[f];
    global_count_ += acc.count;
  }
}

HistoricalFeatureMap::Row HistoricalFeatureMap::Lookup(LandmarkId from,
                                                       LandmarkId to) const {
  auto it = edges_.find({from, to});
  if (it == edges_.end()) return {global_sum_.data(), global_count_};
  return {it->second.sum.data(), it->second.count};
}

std::vector<HistoricalFeatureMap::EdgeRecord> HistoricalFeatureMap::Edges()
    const {
  std::vector<EdgeRecord> out;
  out.reserve(edges_.size());
  for (const Key& key : key_order_) {
    const Accumulator& acc = edges_.find(key)->second;
    out.push_back({key.from, key.to, acc.sum, acc.count});
  }
  return out;
}

double HistoricalFeatureMap::GlobalAverage(size_t feature) const {
  STMAKER_CHECK(feature < num_features_);
  if (global_count_ == 0) return 0;
  return global_sum_[feature] / global_count_;
}

}  // namespace stmaker
