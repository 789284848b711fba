#ifndef STMAKER_CORE_VOTES_H_
#define STMAKER_CORE_VOTES_H_

/// \file
/// Weighted plurality votes with an ordered map's tie-break, without the
/// map: the dominant road attributes of a segment (one vote per matched
/// fix) and of a partition (one vote per segment, weighted by length).

#include <array>
#include <string>
#include <utility>
#include <vector>

namespace stmaker {

/// \brief Plurality over a dense enum range [1, kMax], each vote weighted
/// by a `W` (a count or a length).
///
/// Weights are summed in vote order. Best() is the smallest value among
/// those with the largest total; a value voted for with zero weight still
/// counts as voted for.
template <typename E, int kMax, typename W = int>
class EnumVotes {
 public:
  void Vote(E value, W weight = 1) {
    const int v = static_cast<int>(value);
    voted_[v] = true;
    totals_[v] += weight;
  }

  /// The winner. At least one vote must have been cast.
  E Best() const {
    int best = 0;
    for (int v = 1; v <= kMax; ++v) {
      if (voted_[v] && (best == 0 || totals_[v] > totals_[best])) best = v;
    }
    return static_cast<E>(best);
  }

 private:
  std::array<W, kMax + 1> totals_{};
  std::array<bool, kMax + 1> voted_{};
};

/// \brief Plurality over road names, each vote weighted by a `W`, tallied by
/// pointer to the voter's own name string.
///
/// Weights are summed in vote order, and Best() breaks ties by the
/// lexicographically smallest name. A tally sees a handful of distinct
/// names, so a linear scan beats any map. The voted strings must outlive
/// the tally.
template <typename W = int>
class NameVotes {
 public:
  void Vote(const std::string* name, W weight = 1) {
    for (auto& [n, total] : totals_) {
      if (n == name || *n == *name) {
        total += weight;
        return;
      }
    }
    totals_.push_back({name, weight});
  }

  /// The winner. At least one vote must have been cast.
  const std::string& Best() const {
    const std::pair<const std::string*, W>* best = &totals_[0];
    for (const auto& entry : totals_) {
      if (entry.second > best->second ||
          (entry.second == best->second && *entry.first < *best->first)) {
        best = &entry;
      }
    }
    return *best->first;
  }

  void clear() { totals_.clear(); }

 private:
  std::vector<std::pair<const std::string*, W>> totals_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_VOTES_H_
