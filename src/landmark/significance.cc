#include "landmark/significance.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace stmaker {

SignificanceModel::SignificanceModel(size_t num_travelers,
                                     size_t num_landmarks)
    : num_landmarks_(num_landmarks),
      visits_by_traveler_(num_travelers) {}

void SignificanceModel::AddVisit(int64_t traveler, LandmarkId landmark) {
  AddVisitWeight(traveler, landmark, 1.0);
}

void SignificanceModel::AddVisitWeight(int64_t traveler, LandmarkId landmark,
                                       double weight) {
  STMAKER_CHECK(traveler >= 0);
  STMAKER_CHECK(weight > 0);
  if (static_cast<size_t>(traveler) >= visits_by_traveler_.size()) {
    visits_by_traveler_.resize(static_cast<size_t>(traveler) + 1);
  }
  STMAKER_CHECK(landmark >= 0 &&
                static_cast<size_t>(landmark) < num_landmarks_);
  auto& visits = visits_by_traveler_[traveler];
  for (auto& [lm, count] : visits) {
    if (lm == landmark) {
      count += weight;
      return;
    }
  }
  visits.emplace_back(landmark, weight);
}

std::vector<double> SignificanceModel::Compute(int iterations) const {
  const size_t num_travelers = visits_by_traveler_.size();
  std::vector<double> hub(num_landmarks_, 1.0);    // landmarks
  std::vector<double> auth(num_travelers, 1.0);    // travellers
  for (int it = 0; it < iterations; ++it) {
    // auth(u) = sum over visited landmarks of hub(l).
    for (size_t u = 0; u < num_travelers; ++u) {
      double a = 0;
      for (const auto& [lm, count] : visits_by_traveler_[u]) {
        a += count * hub[lm];
      }
      auth[u] = a;
    }
    // hub(l) = sum over visiting travellers of auth(u).
    std::vector<double> new_hub(num_landmarks_, 0.0);
    for (size_t u = 0; u < num_travelers; ++u) {
      for (const auto& [lm, count] : visits_by_traveler_[u]) {
        new_hub[lm] += count * auth[u];
      }
    }
    hub.swap(new_hub);
    // L2-normalize both to keep the iteration bounded.
    auto normalize = [](std::vector<double>* v) {
      double norm = 0;
      for (double x : *v) norm += x * x;
      norm = std::sqrt(norm);
      if (norm > 0) {
        for (double& x : *v) x /= norm;
      }
    };
    normalize(&hub);
    normalize(&auth);
  }
  // Max-normalize to [0, 1] for use as l.s.
  double max_hub = 0;
  for (double h : hub) max_hub = std::max(max_hub, h);
  if (max_hub > 0) {
    for (double& h : hub) h /= max_hub;
  }
  return hub;
}

void SignificanceModel::Apply(LandmarkIndex* index, int iterations) const {
  STMAKER_CHECK(index != nullptr);
  STMAKER_CHECK(index->size() == num_landmarks_);
  std::vector<double> scores = Compute(iterations);
  for (size_t i = 0; i < scores.size(); ++i) {
    index->SetSignificance(static_cast<LandmarkId>(i), scores[i]);
  }
}

VisitCorpus::Record& VisitCorpus::RecordFor(int64_t key) {
  auto [it, inserted] = index_.emplace(key, records_.size());
  if (inserted) {
    records_.push_back(Record{key, {}});
  }
  return records_[it->second];
}

void VisitCorpus::AddTrajectory(int64_t raw_traveler,
                                const std::vector<LandmarkId>& landmarks) {
  int64_t key = raw_traveler >= 0 ? raw_traveler : -(++anonymous_counter_);
  Record& record = RecordFor(key);
  for (LandmarkId lm : landmarks) {
    // Coalesce onto the first-seen pair, mirroring
    // SignificanceModel::AddVisit so BuildModel reproduces the multigraph
    // an incremental AddVisit stream would have built.
    bool found = false;
    for (auto& [existing, count] : record.visits) {
      if (existing == lm) {
        count += 1.0;
        found = true;
        break;
      }
    }
    if (!found) record.visits.emplace_back(lm, 1.0);
  }
}

void VisitCorpus::Merge(const VisitCorpus& other) {
  for (const Record& record : other.records_) {
    if (record.key < 0) {
      // Anonymous travellers stay distinct across shards: allocate the
      // next master key in replay order, matching what a serial ingest
      // would have assigned.
      Record& fresh = RecordFor(-(++anonymous_counter_));
      fresh.visits = record.visits;
      continue;
    }
    Record& mine = RecordFor(record.key);
    for (const auto& [lm, count] : record.visits) {
      bool found = false;
      for (auto& [existing, c] : mine.visits) {
        if (existing == lm) {
          c += count;
          found = true;
          break;
        }
      }
      if (!found) mine.visits.emplace_back(lm, count);
    }
  }
}

SignificanceModel VisitCorpus::BuildModel(size_t num_landmarks) const {
  SignificanceModel model(records_.size(), num_landmarks);
  for (size_t t = 0; t < records_.size(); ++t) {
    for (const auto& [lm, count] : records_[t].visits) {
      model.AddVisitWeight(static_cast<int64_t>(t), lm, count);
    }
  }
  return model;
}

}  // namespace stmaker
