#include "core/historical_feature_map.h"

#include "common/check.h"

namespace stmaker {

HistoricalFeatureMap::HistoricalFeatureMap(size_t num_features)
    : num_features_(num_features), global_sum_(num_features, 0.0) {
  STMAKER_CHECK(num_features > 0);
}

void HistoricalFeatureMap::AddSegment(
    LandmarkId from, LandmarkId to,
    const std::vector<double>& feature_values) {
  STMAKER_CHECK(feature_values.size() == num_features_);
  Accumulator& acc = edges_[{from, to}];
  if (acc.sum.empty()) {
    acc.sum.assign(num_features_, 0.0);
    key_order_.push_back({from, to});
  }
  for (size_t f = 0; f < num_features_; ++f) {
    acc.sum[f] += feature_values[f];
    global_sum_[f] += feature_values[f];
  }
  acc.count += 1;
  global_count_ += 1;
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

void HistoricalFeatureMap::Merge(const HistoricalFeatureMap& other) {
  STMAKER_CHECK(other.num_features_ == num_features_);
  for (const Key& key : other.key_order_) {
    const Accumulator& acc = other.edges_.find(key)->second;
    AddAccumulated(key.from, key.to, acc.sum, acc.count);
  }
}

void HistoricalFeatureMap::AddAccumulated(LandmarkId from, LandmarkId to,
                                          const std::vector<double>& sums,
                                          double count) {
  STMAKER_CHECK(sums.size() == num_features_);
  STMAKER_CHECK(count > 0);
  Accumulator& acc = edges_[{from, to}];
  if (acc.sum.empty()) {
    acc.sum.assign(num_features_, 0.0);
    key_order_.push_back({from, to});
  }
  for (size_t f = 0; f < num_features_; ++f) {
    acc.sum[f] += sums[f];
    global_sum_[f] += sums[f];
  }
  acc.count += count;
  global_count_ += count;
}

double HistoricalFeatureMap::GlobalAverage(size_t feature) const {
  STMAKER_CHECK(feature < num_features_);
  if (global_count_ == 0) return 0;
  return global_sum_[feature] / global_count_;
}

}  // namespace stmaker
