#include "landmark/significance.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace stmaker {

namespace {

/// Adds one visit of `landmark` to `record`, coalescing onto its
/// first-seen pair for that landmark.
void AddVisit(VisitCorpus::Record* record, LandmarkId landmark) {
  for (auto& [existing, count] : record->visits) {
    if (existing == landmark) {
      count += 1.0;
      return;
    }
  }
  record->visits.emplace_back(landmark, 1.0);
}

}  // namespace

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
  for (LandmarkId lm : landmarks) AddVisit(&record, lm);
}

std::vector<double> VisitCorpus::Significance(size_t num_landmarks,
                                              int iterations) const {
  for (const Record& record : records_) {
    for (const auto& [lm, count] : record.visits) {
      STMAKER_CHECK(lm >= 0 && static_cast<size_t>(lm) < num_landmarks);
    }
  }
  const size_t num_travelers = records_.size();
  std::vector<double> hub(num_landmarks, 1.0);     // landmarks
  std::vector<double> auth(num_travelers, 1.0);    // travellers
  for (int it = 0; it < iterations; ++it) {
    // auth(u) = sum over visited landmarks of hub(l).
    for (size_t u = 0; u < num_travelers; ++u) {
      double a = 0;
      for (const auto& [lm, count] : records_[u].visits) {
        a += count * hub[lm];
      }
      auth[u] = a;
    }
    // hub(l) = sum over visiting travellers of auth(u).
    std::vector<double> new_hub(num_landmarks, 0.0);
    for (size_t u = 0; u < num_travelers; ++u) {
      for (const auto& [lm, count] : records_[u].visits) {
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

}  // namespace stmaker
